package mcheck

import (
	"reflect"
	"slices"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
)

// forScopeCases runs body as a parallel subtest for every protocol and
// for the four seeded-bug mutants (on bitar), at p3/b2/w2 with depth 3:
// body steps every action from every state reached, the transitions of
// a depth-4 exploration. With symmetry set it runs each case with and
// without symmetry, so the parents are canonical keys too. mut names
// the case's mutant ("" for none).
func forScopeCases(t *testing.T, symmetry bool, body func(t *testing.T, o Options, mut string)) {
	type tcase struct{ proto, mut string }
	var cases []tcase
	for _, name := range protocol.Names() {
		cases = append(cases, tcase{proto: name})
	}
	for _, mut := range MutantNames() {
		cases = append(cases, tcase{proto: "bitar", mut: mut})
	}
	syms := []bool{false}
	if symmetry {
		syms = append(syms, true)
	}
	for _, tc := range cases {
		for _, sym := range syms {
			name := tc.proto
			if tc.mut != "" {
				name += "+" + tc.mut
			}
			if sym {
				name += "/sym"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				p := protocol.MustNew(tc.proto)
				if tc.mut != "" {
					var err error
					if p, err = Mutate(p, tc.mut); err != nil {
						t.Fatal(err)
					}
				}
				o := Options{Protocol: p, Procs: 3, Blocks: 2, Words: 2, Depth: 3, Symmetry: sym}
				body(t, o.withDefaults(), tc.mut)
			})
		}
	}
}

// TestScopedCheckMatchesFull pins the journal-scoped re-check of the
// expand workers to the full-universe check: on every transition a
// depth-4 exploration takes a machine with scopeChecks must report
// exactly the messages, in the same order, that a machine sweeping
// every block reports for the same step. The mutants' violating
// transitions exercise the message path.
func TestScopedCheckMatchesFull(t *testing.T) {
	forScopeCases(t, false, func(t *testing.T, o Options, mut string) {
		scoped, full := newMachine(o), newMachine(o)
		scoped.scopeChecks()
		var acts []Action
		transitions, violating := 0, 0
		for _, k := range reachedKeys(t, o) {
			scoped.restoreKey(k)
			acts = append(acts[:0], scoped.actions()...)
			for _, a := range acts {
				scoped.restoreKey(k)
				full.restoreKey(k)
				got, want := scoped.step(a), full.step(a)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s from %v: journal-scoped check reports %q, full check %q", a, k, got, want)
				}
				transitions++
				if len(want) > 0 {
					violating++
				}
			}
		}
		if mut != "" && violating == 0 {
			t.Fatalf("%d transitions, none violating: the mutant's message path went unchecked", transitions)
		}
	})
}

// TestJournalCoversKeyChanges: the journal plus the action's own block
// bound what a step changed. On every transition of a depth-4
// exploration, each block whose section of the state key differs from
// the parent's must be among stepBlocks — the blocks successorKey
// re-encodes and restoreBlocks restores. (Rudolph's reuse of a tag-only
// frame for another block is the write this catches.)
func TestJournalCoversKeyChanges(t *testing.T) {
	forScopeCases(t, true, func(t *testing.T, o Options, _ string) {
		m := newMachine(o)
		m.scopeChecks()
		stride := m.lay.blockStride
		var acts []Action
		for _, k := range reachedKeys(t, o) {
			m.restoreKey(k)
			acts = append(acts[:0], m.actions()...)
			for _, a := range acts {
				m.restoreKey(k)
				if _, v := m.applyStep(a); v != nil {
					continue // the expand loop restores every block after a failed apply
				}
				wrote := m.stepBlocks(a)
				nk := m.encodeKey()
				for b := range o.Blocks {
					sec := nk[b*stride : (b+1)*stride]
					if !slices.Equal(sec, k[b*stride:(b+1)*stride]) && !slices.Contains(wrote, addr.Block(b)) {
						t.Fatalf("%s from %v changed block %d's key section, but the journal holds only %v", a, k, b, wrote)
					}
				}
			}
		}
	})
}

// TestScopedRestoreMatchesFull runs the expand loop's action sequence
// on two machines in lockstep: from each parent, one machine returns
// to the parent between actions as expandWorker.expand does —
// restoreBlocks over the blocks the last step wrote, restoreKey after
// a failed apply — the other with restoreKey every time. Every
// transition must reach the same state (successorKey on the first, a
// full encode on the second) with the same violation messages.
func TestScopedRestoreMatchesFull(t *testing.T) {
	forScopeCases(t, true, func(t *testing.T, o Options, _ string) {
		scoped, full := newMachine(o), newMachine(o)
		scoped.scopeChecks()
		var acts []Action
		for _, k := range reachedKeys(t, o) {
			scoped.restoreKey(k)
			acts = append(acts[:0], scoped.actions()...)
			var wrote []addr.Block
			applyFailed := false
			for _, a := range acts {
				if applyFailed {
					scoped.restoreKey(k)
				} else if wrote != nil {
					scoped.restoreBlocks(k, wrote)
				}
				full.restoreKey(k)
				gsr, got := scoped.applyStep(a)
				wsr, want := full.applyStep(a)
				if applyFailed = got != nil; !applyFailed && want == nil {
					wrote = scoped.stepBlocks(a)
					if gk, wk := scoped.successorKey(k, wrote), full.encodeKey(); !slices.Equal(gk, wk) {
						t.Fatalf("%s from %v: scoped restore reaches %v, full restore %v", a, k, gk, wk)
					}
					got = scoped.checkStep(scoped.universe, a, gsr)
					want = full.checkStep(full.universe, a, wsr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s from %v: scoped restore reports %q, full restore %q", a, k, got, want)
				}
			}
		}
	})
}

// TestSuiteRunsOncePerState is the exact work gate of the check-once
// rule (expandWorker.expand): a clean single-session exploration on one
// worker runs the invariant suite once per state it discovers, the
// root aside, which Open checks. With two workers, or three sessions
// whose candidates for another owner are checked before the owner
// dedupes them, a state may be checked by more than one discoverer,
// but never more than once per transition.
func TestSuiteRunsOncePerState(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"bitar-p3-d7", Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 7}},
		{"bitar-p3-d7-sym", Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 7, Symmetry: true}},
		{"illinois-p3-b2-d4", Options{Protocol: protocol.MustNew("illinois"), Procs: 3, Blocks: 2, Depth: 4}},
		{"dragon-p3-b2-d5-sym", Options{Protocol: protocol.MustNew("dragon"), Procs: 3, Blocks: 2, Depth: 5, Symmetry: true}},
		{"bitar-p3-b2-d4-sym", Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 4, Symmetry: true}},
		{"bitar-p3-b2-d4-por", Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 4, Symmetry: true, POR: true}},
		{"bitar-p3-b2-d4-spill", Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 4, Symmetry: true, MemBudget: 256 << 10}},
		{"locke-p3-b2-d4", Options{Protocol: protocol.MustNew("locke"), Procs: 3, Blocks: 2, Depth: 4}},
		{"rudolph-p3-b2-d6", Options{Protocol: protocol.MustNew("rudolph"), Procs: 3, Blocks: 2, Depth: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := tc.o
			o.Words = 2
			run := func(workers int) (*Result, int64) {
				o := o
				o.Workers = workers
				var runs int64
				o.suiteHook = func(n int64) { runs += n }
				res, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Counterexample != nil {
					t.Fatalf("unexpected counterexample: %v", res.Counterexample.Violations)
				}
				return res, runs
			}
			res, runs := run(1)
			if runs != res.States-1 {
				t.Errorf("Workers 1: %d suite runs for %d states, want States-1 = %d", runs, res.States, res.States-1)
			}
			inBounds := func(what string, runs int64) {
				if runs < res.States-1 || runs > res.Transitions {
					t.Errorf("%s: %d suite runs, want between States-1 = %d and Transitions = %d",
						what, runs, res.States-1, res.Transitions)
				}
			}
			res2, runs2 := run(2)
			if res2.States != res.States || res2.Transitions != res.Transitions {
				t.Fatalf("Workers 2 explored %d states / %d transitions, Workers 1 %d / %d",
					res2.States, res2.Transitions, res.States, res.Transitions)
			}
			inBounds("Workers 2", runs2)
			if o.MemBudget > 0 {
				return // spilling does not compose with sharding
			}
			sessions := make([]*ShardSession, 3)
			peers := make([]ShardPeer, len(sessions))
			for i := range sessions {
				s, err := NewShardSession(o, i, len(sessions))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sessions[i], peers[i] = s, s
			}
			sres, err := RunSharded(o, peers)
			if err != nil {
				t.Fatal(err)
			}
			if sres.States != res.States {
				t.Fatalf("3 sessions explored %d states, one session %d", sres.States, res.States)
			}
			var sruns int64
			for _, s := range sessions {
				sruns += s.suiteRuns()
			}
			inBounds("3 sessions", sruns)
		})
	}
}
