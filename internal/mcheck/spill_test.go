package mcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// normalizeSpill zeroes the spill statistics so a spilled Result can be
// compared structurally against an in-memory one.
func normalizeSpill(r *Result) {
	r.MemBudget = 0
	r.SpilledStates = 0
	r.SpilledBytes = 0
	r.SpillRuns = 0
	r.SpillSeals = 0
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpillEquivalence is the spill differential: a run forced to seal
// nearly every level by a tiny MemBudget must produce the byte-identical
// Result (verdict, counts, counterexample bytes) of the all-in-memory
// run, at worker counts 1 and 8 — and the spill statistics themselves
// must be identical across worker counts. Mutant cases force
// counterexample traces whose parent edges live in sealed runs.
func TestSpillEquivalence(t *testing.T) {
	cases := []struct {
		proto, inject string
		procs, blocks int
		sym           bool
		depth         int
	}{
		{proto: "bitar", procs: 3, blocks: 2, sym: true, depth: 5},
		{proto: "locke", procs: 2, blocks: 2, sym: false, depth: 5},
		{proto: "illinois", procs: 3, blocks: 1, sym: true, depth: 6},
		{proto: "bitar", inject: "ignore-lock", procs: 3, blocks: 1, sym: true, depth: 6},
		{proto: "berkeley", inject: "skip-writeback", procs: 2, blocks: 2, sym: false, depth: 5},
	}
	for _, c := range cases {
		c := c
		name := c.proto
		if c.inject != "" {
			name += "+" + c.inject
		}
		t.Run(name, func(t *testing.T) {
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
			o := Options{Protocol: mk(), Procs: c.procs, Blocks: c.blocks, Depth: c.depth, Workers: 1, Symmetry: c.sym}
			base, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			normalizeTiming(base)
			base.Workers = 0
			want := mustJSON(t, base)

			var prevSpill string
			for _, workers := range []int{1, 8} {
				so := o
				so.Protocol = mk()
				so.Workers = workers
				so.MemBudget = 4096 // 64 bytes per shard: every level seals
				spilled, err := Run(so)
				if err != nil {
					t.Fatal(err)
				}
				if spilled.SpillSeals == 0 || spilled.SpilledStates == 0 || spilled.SpilledBytes == 0 {
					t.Fatalf("workers=%d: budget %d did not force spilling: %+v", workers, so.MemBudget, spilled)
				}
				normalizeTiming(spilled)
				spilled.Workers = 0
				full := mustJSON(t, spilled)
				if prevSpill == "" {
					prevSpill = full
				} else if full != prevSpill {
					t.Fatalf("spill statistics depend on worker count:\n w=1 %s\n w=%d %s", prevSpill, workers, full)
				}
				normalizeSpill(spilled)
				if got := mustJSON(t, spilled); got != want {
					t.Fatalf("workers=%d: spilled result differs\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// TestSpillCompaction forces many seals and checks that runs
// merge-compact: the final run count must stay below the seal count
// and under the compaction threshold per shard.
func TestSpillCompaction(t *testing.T) {
	o := Options{
		Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2,
		Depth: 6, Workers: 2, Symmetry: true, MemBudget: 4096,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpillSeals < spillCompactAt {
		t.Fatalf("expected at least %d seals, got %d", spillCompactAt, res.SpillSeals)
	}
	if res.SpillRuns >= res.SpillSeals {
		t.Fatalf("no compaction: %d runs from %d seals", res.SpillRuns, res.SpillSeals)
	}
	// Per-shard runs are compacted to one at spillCompactAt, so no
	// shard can end with more than spillCompactAt runs.
	if res.SpillRuns > spillCompactAt*shardCount {
		t.Fatalf("run count %d exceeds the compaction bound", res.SpillRuns)
	}
}

// TestSpillRunsDurableOnlyWithCheckpoint: a session fsyncs every run
// file it writes (seals and compactions alike) if and only if it
// checkpoints, because only a checkpoint manifest names runs after a
// crash; a private spill directory dies with the session. The budget
// forces compactions too, so both writers are covered.
func TestSpillRunsDurableOnlyWithCheckpoint(t *testing.T) {
	opts := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 6,
		Symmetry: true, MemBudget: 4096}
	o := opts.withDefaults()
	for _, ckpt := range []bool{false, true} {
		s := newSession(o, 0, 1)
		if ckpt {
			if err := s.SetCheckpointDir(t.TempDir(), false); err != nil {
				t.Fatal(err)
			}
		}
		res, err := explore(o, []ShardPeer{s})
		if err != nil {
			t.Fatal(err)
		}
		written, synced := s.st.nextSeq, s.st.synced
		s.Close()
		if res.Counterexample != nil || written <= s.st.seals {
			t.Fatalf("checkpoint=%v: %d run files from %d seals; the test needs a clean run that compacts",
				ckpt, written, s.st.seals)
		}
		if want := map[bool]int{false: 0, true: written}[ckpt]; synced != want {
			t.Errorf("checkpoint=%v: %d of %d run files fsynced, want %d", ckpt, synced, written, want)
		}
	}
}

// TestSpillTruncationParity checks the MaxStates cutoff is unchanged
// by spilling.
func TestSpillTruncationParity(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 6, Workers: 2, MaxStates: 200}
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	so := o
	so.MemBudget = 2048
	sp, err := Run(so)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Truncated || !sp.Truncated || base.States != sp.States || base.DepthReached != sp.DepthReached {
		t.Fatalf("truncation diverged: base states=%d trunc=%v, spill states=%d trunc=%v",
			base.States, base.Truncated, sp.States, sp.Truncated)
	}
}

// TestPORSpillBudget pins the POR interaction the spill store must
// preserve: a POR run with a tiny MemBudget, whole or truncated by
// MaxStates, must report the same states, verdict, and truncation as
// the in-memory POR run — and actually spill.
func TestPORSpillBudget(t *testing.T) {
	for _, maxStates := range []int{0, 120} {
		o := Options{
			Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2,
			Depth: 5, Workers: 2, Symmetry: true, POR: true, MaxStates: maxStates,
		}
		base, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		so := o
		so.MemBudget = 4096
		sp, err := Run(so)
		if err != nil {
			t.Fatal(err)
		}
		if sp.SpillSeals == 0 || sp.SpilledStates == 0 {
			t.Fatalf("maxstates=%d: POR run did not spill: %+v", maxStates, sp)
		}
		normalizeTiming(base)
		normalizeTiming(sp)
		spillSeen := *sp
		normalizeSpill(&spillSeen)
		if got, want := mustJSON(t, &spillSeen), mustJSON(t, base); got != want {
			t.Fatalf("maxstates=%d: POR+spill diverged\n got %s\nwant %s", maxStates, got, want)
		}
	}
}

// TestRunFileRoundTrip unit-tests the sealed-run codec: sorted keys
// with hashes and edges in, identical keys, hashes, and edges out —
// through probes, the iterator, and raw section reads.
func TestRunFileRoundTrip(t *testing.T) {
	const kw, n = 3, 1000
	dir := t.TempDir()
	// Deterministic pseudo-random sorted keys with structure a delta
	// coder must handle: long shared prefixes and full-width jumps.
	keys := make([][]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	cur := []uint64{0, 0, 0}
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		switch x % 4 {
		case 0:
			cur[2] += 1 + x%255
		case 1:
			cur[1] += 1 + x%1024
			cur[2] = 0
		case 2:
			cur[0] += 1 + x%3
			cur[2] = x >> 32
		default:
			cur[2] += 1 + x%7
		}
		keys[i] = append([]uint64(nil), cur...)
	}
	w, err := newRunWriter(dir, 7, kw, 100)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]byte, n*runEdgeSz)
	for i, k := range keys {
		if err := w.add(k, hashKey(k)); err != nil {
			t.Fatal(err)
		}
		putEdge(edges[i*runEdgeSz:], edge{
			parent: packID(i%shardCount, i),
			act:    Action{Proc: i % 8, Kind: ActionKind(i % 2), Op: protocol.OpWrite, Block: uint64(i % 4), Word: i % 8, Value: uint64(i)},
		})
	}
	if err := w.finish(edges); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(filepath.Join(dir, runFileName(7)), kw, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.base != 100 || r.count != n {
		t.Fatalf("base/count = %d/%d, want 100/%d", r.base, r.count, n)
	}
	sc := newProbeScratch(kw)
	for i, k := range keys {
		ok, err := r.probe(k, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %d not found", i)
		}
		miss := append([]uint64(nil), k...)
		miss[2] ^= 1 << 63
		if ok, _ := r.probe(miss, sc); ok {
			t.Fatalf("mutated key %d reported present", i)
		}
	}
	for i := 0; i < n; i++ {
		e, err := r.edgeAt(uint64(100+i), sc)
		if err != nil {
			t.Fatal(err)
		}
		if e.parent != packID(i%shardCount, i) || e.act.Value != uint64(i) || e.act.Proc != i%8 {
			t.Fatalf("edge %d decoded wrong: %+v", i, e)
		}
	}
	it, err := newRunIter(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		k, h, ok, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != n {
				t.Fatalf("iterator stopped at %d of %d", i, n)
			}
			break
		}
		if !equalKey(k, keys[i]) || h != hashKey(keys[i]) {
			t.Fatalf("iterator entry %d mismatched", i)
		}
	}
}

// TestRunFileRejectsCorruption flips bytes across a sealed run and
// asserts open-with-verify never accepts the file silently.
func TestRunFileRejectsCorruption(t *testing.T) {
	const kw = 2
	dir := t.TempDir()
	w, err := newRunWriter(dir, 0, kw, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]uint64{{1, 2}, {1, 3}, {2, 9}, {4, 4}}
	edges := make([]byte, len(keys)*runEdgeSz)
	for i, k := range keys {
		if err := w.add(k, hashKey(k)); err != nil {
			t.Fatal(err)
		}
		putEdge(edges[i*runEdgeSz:], edge{parent: noParent})
	}
	if err := w.finish(edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, runFileName(0))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off += 7 {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := openRun(path, kw, true); err == nil {
			// A flipped byte must fail open, except bits the format
			// genuinely does not cover (there are none: every byte is
			// checksummed).
			r.close()
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
}
