package mcheck

import (
	"reflect"
	"testing"

	"cachesync/internal/protocol"
)

// TestScopedCheckMatchesFull pins the journal-scoped re-check of the
// expand workers to the full-universe check: on every transition a
// depth-4 exploration takes — every action from every state reached
// within three steps — a machine with scopeChecks must report exactly
// the messages, in the same order, that a machine sweeping every block
// reports for the same step. It covers every protocol at p3/b2/w2 and
// the four seeded-bug mutants, whose violating transitions exercise
// the message path.
func TestScopedCheckMatchesFull(t *testing.T) {
	type tcase struct{ proto, mut string }
	var cases []tcase
	for _, name := range protocol.Names() {
		cases = append(cases, tcase{proto: name})
	}
	for _, mut := range MutantNames() {
		cases = append(cases, tcase{proto: "bitar", mut: mut})
	}
	for _, tc := range cases {
		tc := tc
		name := tc.proto
		if tc.mut != "" {
			name += "+" + tc.mut
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
			o := Options{Protocol: p, Procs: 3, Blocks: 2, Words: 2, Depth: 3}
			frontier := reachedKeys(t, o)
			od := o.withDefaults()
			scoped, full := newMachine(od), newMachine(od)
			scoped.scopeChecks()
			var acts []Action
			transitions, violating := 0, 0
			for _, k := range frontier {
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
			if tc.mut != "" && violating == 0 {
				t.Fatalf("%d transitions, none violating: the mutant's message path went unchecked", transitions)
			}
		})
	}
}
