package mcheck

import (
	"reflect"
	"strings"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// TestSmokeAllProtocols is the short-depth exhaustive sweep wired into
// the ordinary test run: every registered protocol, every interleaving
// of two processors over one block to depth 5, zero violations.
func TestSmokeAllProtocols(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Options{Protocol: protocol.MustNew(name), Procs: 2, Blocks: 1, Depth: 5, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counterexample != nil {
				t.Fatalf("violation: %v\ntrace: %v\n%s", res.Counterexample.Violations,
					res.Counterexample.Trace, RenderCounterexample(Options{Protocol: protocol.MustNew(name), Procs: 2, Blocks: 1}, res.Counterexample))
			}
			if res.States < 2 {
				t.Fatalf("suspiciously small state space: %d states", res.States)
			}
		})
	}
}

// TestDeepBitar drives the paper's protocol further — three
// processors, two blocks — where lock purges, reclaims, waiter bits,
// and cross-block interactions all occur.
func TestDeepBitar(t *testing.T) {
	depth := 6
	if testing.Short() {
		depth = 4
	}
	res, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: depth, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("violation: %v\ntrace: %v", res.Counterexample.Violations, res.Counterexample.Trace)
	}
	t.Logf("states=%d transitions=%d elapsed=%v (%.0f states/s)",
		res.States, res.Transitions, res.Elapsed, res.StatesPerSec)
}

// TestDeterministicAcrossWorkers checks that worker count affects only
// wall-clock: state counts and counterexample traces are identical.
func TestDeterministicAcrossWorkers(t *testing.T) {
	clean1, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean4, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if clean1.States != clean4.States || clean1.Transitions != clean4.Transitions || clean1.Exhausted != clean4.Exhausted {
		t.Fatalf("worker count changed the exploration: %+v vs %+v", clean1, clean4)
	}

	mut, err := Mutate(protocol.MustNew("illinois"), "drop-invalidate")
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]Action
	for _, w := range []int{1, 3} {
		res, err := Run(Options{Protocol: mut, Procs: 2, Blocks: 1, Depth: 6, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counterexample == nil {
			t.Fatalf("workers=%d: mutant not caught", w)
		}
		traces = append(traces, res.Counterexample.Trace)
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Fatalf("counterexample differs by worker count: %v vs %v", traces[0], traces[1])
	}
}

// TestMutantsCaughtMinimally seeds one bug per invariant class and
// checks that the BFS reports it with a shortest (2-step) trace — and
// that depth 1 is genuinely violation-free, confirming minimality.
func TestMutantsCaughtMinimally(t *testing.T) {
	cases := []struct {
		proto, mut, wantViolation string
	}{
		{"goodman", "drop-invalidate", "diverges from memory"},
		{"illinois", "drop-invalidate", "sole-access holders"},
		{"berkeley", "skip-writeback", "conservation violated"},
		{"bitar", "drop-invalidate", "sole-access holders"},
		{"bitar", "skip-writeback", "conservation violated"},
		{"bitar", "ignore-lock", "sole-access holders"},
		{"bitar", "stale-lock-grant", "sole-access holders"},
		{"locke", "drop-invalidate", "sole-access holders"},
		{"locke", "skip-writeback", "conservation violated"},
		{"locke", "ignore-lock", "sole-access holders"},
		{"locke", "stale-lock-grant", "sole-access holders"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.proto+"+"+c.mut, func(t *testing.T) {
			t.Parallel()
			mut, err := Mutate(protocol.MustNew(c.proto), c.mut)
			if err != nil {
				t.Fatal(err)
			}
			short, err := Run(Options{Protocol: mut, Procs: 2, Blocks: 1, Depth: 1})
			if err != nil {
				t.Fatal(err)
			}
			if short.Counterexample != nil {
				t.Fatalf("violation already at depth 1: %v", short.Counterexample.Violations)
			}
			res, err := Run(Options{Protocol: mut, Procs: 2, Blocks: 1, Depth: 6})
			if err != nil {
				t.Fatal(err)
			}
			cex := res.Counterexample
			if cex == nil {
				t.Fatal("seeded bug not caught")
			}
			if len(cex.Trace) != 2 {
				t.Fatalf("counterexample not minimized: %d steps %v", len(cex.Trace), cex.Trace)
			}
			if !containsSubstring(cex.Violations, c.wantViolation) {
				t.Fatalf("violations %v lack %q", cex.Violations, c.wantViolation)
			}
		})
	}
}

// TestUnknownMutant exercises Mutate's validation.
func TestUnknownMutant(t *testing.T) {
	if _, err := Mutate(protocol.MustNew("bitar"), "nope"); err == nil {
		t.Fatal("unknown mutation accepted")
	}
	if _, err := Mutate(protocol.MustNew("goodman"), "ignore-lock"); err == nil {
		t.Fatal("ignore-lock accepted for a protocol without hardware locks")
	}
}

// TestRenderCounterexample checks the bus-sequence rendering of a
// failure: numbered steps, the sequence diagram, and the violations.
// The drop-invalidate trace is a whole-block write then a write by the
// other cache, so its diagram must show both transactions — the executor reuses
// its bus records from step to step, and the rendering keeps copies.
func TestRenderCounterexample(t *testing.T) {
	for _, tc := range []struct {
		mut  string
		want []string
	}{
		{"skip-writeback", []string{"counterexample for bitar+skip-writeback", "bus sequence:", "cache 0", "memory", "violated:", "evict"}},
		{"drop-invalidate", []string{"bus: writenofetch", "bus: readx", ">writenofetch", ">readx b0"}},
	} {
		mut, err := Mutate(protocol.MustNew("bitar"), tc.mut)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Protocol: mut, Procs: 2, Blocks: 1, Depth: 6}
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counterexample == nil {
			t.Fatalf("%s: no counterexample", tc.mut)
		}
		out := RenderCounterexample(o, res.Counterexample)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: rendering lacks %q:\n%s", tc.mut, want, out)
			}
		}
	}
}

// TestSimReplay replays an eviction-free counterexample through the
// real discrete-event engine and expects the online coherence checker
// to confirm the violation there too.
func TestSimReplay(t *testing.T) {
	mut, err := Mutate(protocol.MustNew("goodman"), "drop-invalidate")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Protocol: mut, Procs: 2, Blocks: 1, Depth: 6}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	out, err := SimReplay(o, res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "confirms the violation") {
		t.Fatalf("sim replay did not confirm the violation:\n%s", out)
	}

	// A trace with an eviction is not sim-representable.
	evMut, err := Mutate(protocol.MustNew("berkeley"), "skip-writeback")
	if err != nil {
		t.Fatal(err)
	}
	eo := Options{Protocol: evMut, Procs: 2, Blocks: 1, Depth: 6}
	evRes, err := Run(eo)
	if err != nil {
		t.Fatal(err)
	}
	if evRes.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if _, err := SimReplay(eo, evRes.Counterexample); err == nil {
		t.Fatal("eviction trace unexpectedly sim-replayable")
	}
}

// TestFigure10Reachability regenerates the processor half of Figure 10
// from the explored state space: every one of the paper's arcs must be
// exercised, with the outcome the paper shows.
func TestFigure10Reachability(t *testing.T) {
	res, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 5, Workers: 2, RecordArcs: true})
	if err != nil {
		t.Fatal(err)
	}
	mismatches, unreached := CrossCheckFigure10(res.Arcs)
	if len(mismatches) > 0 {
		t.Errorf("explored arcs disagree with the paper's Figure 10:\n  %s", strings.Join(mismatches, "\n  "))
	}
	if len(unreached) > 0 {
		t.Errorf("paper arcs not reached at depth 5:\n  %s", strings.Join(unreached, "\n  "))
	}
	if len(res.Arcs) == 0 {
		t.Fatal("no arcs recorded")
	}
}

// TestEncodeRestoreRoundtrip drives a machine through a few steps,
// transplants its encoded state into a fresh machine, and checks the
// two evolve identically.
func TestEncodeRestoreRoundtrip(t *testing.T) {
	opts := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Words: 2}
	o := opts.withDefaults()
	m := newMachine(o)
	script := []Action{
		{Proc: 0, Op: protocol.OpLock, Block: 0},
		{Proc: 1, Op: protocol.OpWrite, Block: 1, Word: 1, Value: 7},
		{Proc: 0, Kind: ActEvict, Block: 0},
		{Proc: 2, Op: protocol.OpRead, Block: 1},
	}
	for _, a := range script {
		sr, err := m.apply(a)
		if err != nil {
			t.Fatal(err)
		}
		m.commitShadow(a, sr)
	}
	enc := append([]uint64(nil), m.encodeKey()...)

	m2 := newMachine(o)
	m2.restoreKey(enc)
	if got := m2.encodeKey(); !reflect.DeepEqual(append([]uint64(nil), got...), enc) {
		t.Fatal("restore → encode is not the identity")
	}
	next := Action{Proc: 0, Op: protocol.OpUnlock, Block: 0, Value: 9}
	for _, mm := range []*machine{m, m2} {
		sr, err := mm.apply(next)
		if err != nil {
			t.Fatal(err)
		}
		mm.commitShadow(next, sr)
	}
	if !reflect.DeepEqual(append([]uint64(nil), m.encodeKey()...), append([]uint64(nil), m2.encodeKey()...)) {
		t.Fatal("restored machine diverged from the original after one step")
	}
}

// TestRunValidation covers the option guard rails.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 40}); err == nil {
		t.Fatal("absurd processor count accepted")
	}
}

func containsSubstring(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
