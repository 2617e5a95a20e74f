package workload_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden from the Program path")

const digestGolden = "testdata/digests.golden"

// generator is any workload generator.
type generator interface {
	Programs(l workload.Layout, procs int) []sim.Program
}

// digestCase is one machine × generator configuration of the golden,
// named <protocol>/<config>, or twotier/<generator> for the routed
// Aquarius machine.
type digestCase struct {
	name string
	gen  generator
}

// digestCases enumerates the golden cases: every protocol under eleven
// generator configurations (mixed and lock at three seeds each, plus
// one of every other generator) — 143 cases — and then every
// generator of classCases on the routed two-tier machine.
func digestCases() []digestCase {
	var cs []digestCase
	for _, name := range all.Everything {
		scheme := syncprim.SchemeFor(protocol.MustNew(name))
		for _, seed := range []int64{1, 2, 3} {
			cs = append(cs,
				digestCase{fmt.Sprintf("%s/mixed/seed%d", name, seed), workload.Mixed{Ops: 400, SharedBlocks: 8,
					PrivBlocks: 24, SharedFrac: 0.3, WriteFrac: 0.35, Seed: seed}},
				digestCase{fmt.Sprintf("%s/lock/seed%d", name, seed), workload.LockContention{Locks: 2, Iters: 25,
					HoldCycles: 20, ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: seed}})
		}
		cs = append(cs,
			digestCase{name + "/pc", workload.ProducerConsumer{Items: 20, WritesPerItem: 4, Scheme: scheme}},
			digestCase{name + "/queues", workload.ServiceQueues{Requests: 15, Scheme: scheme, Seed: 7}},
			digestCase{name + "/privateruns", workload.PrivateRuns{Blocks: 12, Sweeps: 4, WriteBack: 0.5, Static: true, Seed: 5}},
			digestCase{name + "/statesave", workload.StateSave{Switches: 10, StateBlocks: 4}},
			digestCase{name + "/lockdata", workload.LockedData{Locks: 2, Iters: 12,
				Records: 4, Instrs: 3, Think: 8, Scheme: scheme, Seed: 11}})
	}
	gens := classCases()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs = append(cs, digestCase{"twotier/" + name, gens[name]})
	}
	return cs
}

// newDigestMachine builds the case's 4-processor machine: the routed
// two-tier machine, whose lower-tier counters it also returns, or the
// case's protocol with small (16-way) caches, so the runs also cover
// the victim and flush paths.
func newDigestMachine(c digestCase) (*sim.System, *stats.Counters) {
	machine, _, _ := strings.Cut(c.name, "/")
	if machine == "twotier" {
		cfg := aquarius.DefaultConfig(4)
		cfg.Routed = true
		a := aquarius.New(cfg)
		return a.Sync, &a.Counts
	}
	p := protocol.MustNew(machine)
	cfg := sim.DefaultConfig(p)
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	cfg.Cache = cache.Config{Sets: 1, Ways: 16}
	return sim.New(cfg), nil
}

// digest runs the case on a fresh machine — its Programs directly, or
// with shim set as blocking workloads (sim.Workloads) through
// System.Run's goroutine adapter — and returns its golden line: the
// final clock and a SHA-256 over the event log, the statistics, every
// cache line, and every touched memory block.
func digest(t *testing.T, c digestCase, shim bool) string {
	t.Helper()
	s, lower := newDigestMachine(c)
	log := s.AttachLog(0)
	progs := c.gen.Programs(workload.Layout{G: s.Geometry()}, len(s.Procs))
	var err error
	if shim {
		err = s.Run(sim.Workloads(progs))
	} else {
		err = s.RunPrograms(progs)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	h := sha256.New()
	touched := map[addr.Block]bool{}
	for _, e := range log.Entries {
		fmt.Fprintf(h, "txn %+v\n", e)
		touched[addr.Block(e.Block)] = true
	}
	st := s.Stats()
	if lower != nil {
		st.Merge(lower)
	}
	snap := st.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "stat %s=%d\n", k, snap[k])
	}
	for i, ch := range s.Caches {
		for _, ln := range ch.Snapshot() {
			fmt.Fprintf(h, "cache%d b%d s%d %v\n", i, ln.Block, ln.State, ln.Data)
			touched[ln.Block] = true
		}
	}
	blocks := make([]addr.Block, 0, len(touched))
	for b := range touched {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		fmt.Fprintf(h, "mem b%d %v\n", b, s.Mem.ReadBlock(b))
	}
	return fmt.Sprintf("%s clock=%d sha256=%x", c.name, s.Clock(), h.Sum(nil))
}

// readGolden loads the committed digest lines keyed by case name.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want[strings.Fields(line)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestProgramDigestsGolden pins every generator's run on every
// protocol, and on the routed two-tier machine, to a committed digest
// — same bus transactions at the same cycles, same final machine
// state, same counters. The golden was generated on the blocking
// workload forms the generators replaced, so it also holds the Program
// forms to the runs those produced.
// Regenerate with -update only after an intentional engine change.
func TestProgramDigestsGolden(t *testing.T) {
	cases := digestCases()
	if *update {
		var b strings.Builder
		b.WriteString("# Per-case digest: final clock and SHA-256 over event log, stats, cache lines, touched memory.\n")
		b.WriteString("# Regenerate: go test ./internal/workload/ -run TestProgramDigestsGolden -update\n")
		for _, c := range cases {
			b.WriteString(digest(t, c, false) + "\n")
		}
		if err := os.WriteFile(digestGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(cases) {
		t.Fatalf("golden holds %d cases, the test enumerates %d", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := digest(t, c, false); got != want[c.name] {
				t.Errorf("digest mismatch:\n  got:  %s\n  want: %s", got, want[c.name])
			}
		})
	}
}

// checkShimAgainstGolden runs, in parallel, every golden case that
// keep selects and names, as blocking workloads through System.Run's
// goroutine adapter, and holds each run to its committed digest — the
// one TestProgramDigestsGolden pins for the direct RunPrograms run.
func checkShimAgainstGolden(t *testing.T, keep func(name string) (string, bool)) {
	want := readGolden(t)
	for _, c := range digestCases() {
		name, ok := keep(c.name)
		if !ok {
			continue
		}
		c := c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := digest(t, c, true); got != want[c.name] {
				t.Errorf("shim run differs from the direct run's golden digest:\n  shim:   %s\n  golden: %s", got, want[c.name])
			}
		})
	}
}

// TestDirectMatchesShim is the differential gate between the engine's
// two entries: on every protocol, every generator configuration of the
// golden driven as blocking code through System.Run must reproduce its
// direct run exactly — same bus transactions at the same cycles, same
// final machine state, same counters.
func TestDirectMatchesShim(t *testing.T) {
	checkShimAgainstGolden(t, func(name string) (string, bool) {
		return name, !strings.HasPrefix(name, "twotier/")
	})
}

// TestBuildMatchesProgramsOnTwoTier extends the differential to the
// routed two-tier machine, lower-tier counters included.
func TestBuildMatchesProgramsOnTwoTier(t *testing.T) {
	checkShimAgainstGolden(t, func(name string) (string, bool) {
		return strings.CutPrefix(name, "twotier/")
	})
}
