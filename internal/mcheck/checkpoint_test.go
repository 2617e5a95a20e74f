package mcheck

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// interruptAtDepth runs o with checkpointing into dir and cancels the
// context from the Progress callback at the given depth — Progress
// fires after the level's checkpoint is saved, so cancellation leaves
// a valid checkpoint for exactly that level on disk. Returns whether
// the run was actually interrupted (a counterexample can end it first).
func interruptAtDepth(t *testing.T, o Options, dir string, depth int) bool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := o
	co.Context = ctx
	co.CheckpointDir = dir
	co.Resume = true
	prev := co.Progress
	co.Progress = func(p ProgressInfo) {
		if prev != nil {
			prev(p)
		}
		if p.Depth >= depth {
			cancel()
		}
	}
	_, err := Run(co)
	if err == nil {
		return false
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run failed with %v, want context.Canceled", err)
	}
	return true
}

// TestKillResumeByteIdentical is the kill-and-resume differential: a
// run interrupted at a level boundary and resumed from its checkpoint
// must produce the byte-identical Result — counterexample bytes
// included — of an uninterrupted run, at worker counts 1 and 8, with
// and without spilling. The in-process SIGKILL stand-in is context
// cancellation right after the checkpoint lands (verify.sh kills a
// real process for the end-to-end version).
func TestKillResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name          string
		proto, inject string
		procs, blocks int
		sym           bool
		depth         int
		memBudget     int64
		cancelAt      int
	}{
		{name: "clean", proto: "bitar", procs: 3, blocks: 2, sym: true, depth: 5, cancelAt: 2},
		{name: "clean-spill", proto: "bitar", procs: 3, blocks: 2, sym: true, depth: 5, memBudget: 4096, cancelAt: 3},
		{name: "mutant", proto: "bitar", inject: "ignore-lock", procs: 3, blocks: 1, sym: true, depth: 6, cancelAt: 2},
		{name: "mutant-spill", proto: "berkeley", inject: "skip-writeback", procs: 2, blocks: 2, depth: 5, memBudget: 4096, cancelAt: 2},
		{name: "truncated", proto: "bitar", procs: 3, blocks: 1, depth: 6, memBudget: 4096, cancelAt: 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			mk := func() protocol.Protocol {
				p := protocol.MustNew(c.proto)
				if c.inject != "" {
					mp, err := Mutate(p, c.inject)
					if err != nil {
						t.Fatal(err)
					}
					p = mp
				}
				return p
			}
			o := Options{Protocol: mk(), Procs: c.procs, Blocks: c.blocks, Depth: c.depth, Workers: 1, Symmetry: c.sym, MemBudget: c.memBudget}
			if c.name == "truncated" {
				o.MaxStates = 2000
			}
			plain, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			normalizeTiming(plain)
			plain.Workers = 0
			want := mustJSON(t, plain)

			for _, workers := range []int{1, 8} {
				io := o
				io.Protocol = mk()
				io.Workers = workers
				dir := t.TempDir()
				interrupted := interruptAtDepth(t, io, dir, c.cancelAt)
				if interrupted {
					if _, err := os.Stat(filepath.Join(dir, ckptManifestName)); err != nil {
						t.Fatalf("interrupted run left no checkpoint: %v", err)
					}
				} else if c.name == "clean" || c.name == "clean-spill" {
					t.Fatalf("workers=%d: clean run was not interrupted at depth %d", workers, c.cancelAt)
				}
				ro := o
				ro.Protocol = mk()
				ro.Workers = workers
				ro.CheckpointDir = dir
				ro.Resume = true
				resumed, err := Run(ro)
				if err != nil {
					t.Fatal(err)
				}
				normalizeTiming(resumed)
				resumed.Workers = 0
				if got := mustJSON(t, resumed); got != want {
					t.Fatalf("workers=%d interrupted=%v: resumed result differs\n got %s\nwant %s", workers, interrupted, got, want)
				}
				// A completed run removes its checkpoint so the directory
				// can be reused by kill/retry loops.
				if _, err := os.Stat(filepath.Join(dir, ckptManifestName)); !os.IsNotExist(err) {
					t.Fatalf("workers=%d: checkpoint manifest survived completion (err=%v)", workers, err)
				}
			}
		})
	}
}

// TestKillResumeAcrossWorkerCounts interrupts at one worker count and
// resumes at another: the options hash deliberately excludes Workers,
// and the result must still be byte-identical.
func TestKillResumeAcrossWorkerCounts(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 5, Workers: 1, Symmetry: true, MemBudget: 4096}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	normalizeTiming(plain)
	plain.Workers = 0

	dir := t.TempDir()
	if !interruptAtDepth(t, o, dir, 2) {
		t.Fatal("run was not interrupted")
	}
	ro := o
	ro.Protocol = protocol.MustNew("bitar")
	ro.Workers = 8
	ro.CheckpointDir = dir
	ro.Resume = true
	resumed, err := Run(ro)
	if err != nil {
		t.Fatal(err)
	}
	normalizeTiming(resumed)
	resumed.Workers = 0
	if got, want := mustJSON(t, resumed), mustJSON(t, plain); got != want {
		t.Fatalf("resume at different worker count diverged\n got %s\nwant %s", got, want)
	}
}

// TestKillResumePOR interrupts a POR check inside its one pass and
// resumes it from the ordinary checkpoint: the result is
// byte-identical to the uninterrupted run's.
func TestKillResumePOR(t *testing.T) {
	for _, memBudget := range []int64{0, 4096} {
		o := Options{
			Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2,
			Depth: 5, Workers: 2, Symmetry: true, POR: true, MemBudget: memBudget,
		}
		plain, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		normalizeTiming(plain)

		// Cancel on the 3rd of the 5 progress ticks, mid-pass.
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		ticks := 0
		co := o
		co.Context = ctx
		co.CheckpointDir = dir
		co.Resume = true
		co.Progress = func(ProgressInfo) {
			if ticks++; ticks >= 3 {
				cancel()
			}
		}
		if _, err := Run(co); !errors.Is(err, context.Canceled) {
			cancel()
			t.Fatalf("budget=%d: interrupted POR run: %v, want context.Canceled", memBudget, err)
		}
		cancel()
		if _, err := os.Stat(filepath.Join(dir, ckptManifestName)); err != nil {
			t.Fatalf("budget=%d: no checkpoint manifest after interrupt: %v", memBudget, err)
		}

		ro := o
		ro.CheckpointDir = dir
		ro.Resume = true
		resumed, err := Run(ro)
		if err != nil {
			t.Fatal(err)
		}
		normalizeTiming(resumed)
		if got, want := mustJSON(t, resumed), mustJSON(t, plain); got != want {
			t.Fatalf("budget=%d: resumed POR result differs\n got %s\nwant %s", memBudget, got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, ckptManifestName)); !os.IsNotExist(err) {
			t.Fatalf("budget=%d: checkpoint manifest survived completion (err=%v)", memBudget, err)
		}
	}
}

// TestCheckpointRefusesMismatchedOptions pins the guard against
// resuming a checkpoint under a different model: same directory,
// different depth, must fail loudly rather than blend two runs.
func TestCheckpointRefusesMismatchedOptions(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 5, Workers: 2, Symmetry: true}
	dir := t.TempDir()
	if !interruptAtDepth(t, o, dir, 2) {
		t.Fatal("run was not interrupted")
	}
	ro := o
	ro.Depth = 6
	ro.CheckpointDir = dir
	ro.Resume = true
	if _, err := Run(ro); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume under different depth: %v, want options-mismatch error", err)
	}
}

// TestCheckpointRequiresResumeFlag: a directory that already holds a
// checkpoint must not be silently overwritten.
func TestCheckpointRequiresResumeFlag(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 5, Workers: 2, Symmetry: true}
	dir := t.TempDir()
	if !interruptAtDepth(t, o, dir, 2) {
		t.Fatal("run was not interrupted")
	}
	co := o
	co.CheckpointDir = dir
	if _, err := Run(co); err == nil || !strings.Contains(err.Error(), "already holds a checkpoint") {
		t.Fatalf("checkpoint dir reuse without Resume: %v, want refusal", err)
	}
}

// TestResumeEmptyDirStartsFresh: Resume against a directory with no
// checkpoint is a plain run (the idiom for kill/retry loops is to
// always pass -resume).
func TestResumeEmptyDirStartsFresh(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 4, Workers: 1}
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ro := o
	ro.CheckpointDir = t.TempDir()
	ro.Resume = true
	res, err := Run(ro)
	if err != nil {
		t.Fatal(err)
	}
	normalizeTiming(base)
	normalizeTiming(res)
	if got, want := mustJSON(t, res), mustJSON(t, base); got != want {
		t.Fatalf("resume on empty dir diverged\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointOptionValidation covers the new Options error cases.
func TestCheckpointOptionValidation(t *testing.T) {
	base := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 3}

	o := base
	o.Resume = true
	if _, err := Run(o); err == nil {
		t.Fatal("Resume without CheckpointDir accepted")
	}
	o = base
	o.CheckpointDir = t.TempDir()
	o.RecordArcs = true
	if _, err := Run(o); err == nil {
		t.Fatal("CheckpointDir with RecordArcs accepted")
	}
	o = base
	o.MemBudget = -1
	if _, err := Run(o); err == nil {
		t.Fatal("negative MemBudget accepted")
	}
}

// TestSnapshotRejectsCorruption flips bytes across a snapshot file and
// asserts resume never silently accepts it.
func TestSnapshotRejectsCorruption(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 5, Workers: 1, MemBudget: 4096}
	dir := t.TempDir()
	if !interruptAtDepth(t, o, dir, 2) {
		t.Fatal("run was not interrupted")
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.mcs"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v (err=%v)", snaps, err)
	}
	orig, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	ro := o
	ro.CheckpointDir = dir
	ro.Resume = true
	for off := 0; off < len(orig); off += 97 {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x10
		if err := os.WriteFile(snaps[0], mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ro); err == nil {
			t.Fatalf("corrupted snapshot (offset %d) accepted", off)
		}
	}
	// Restore and prove the pristine snapshot still resumes.
	if err := os.WriteFile(snaps[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ro); err != nil {
		t.Fatalf("pristine snapshot no longer resumes: %v", err)
	}
}
