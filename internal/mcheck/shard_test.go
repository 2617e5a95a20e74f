package mcheck

import (
	"encoding/json"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// runShardedInProc drives RunSharded over n in-process sessions.
func runShardedInProc(t *testing.T, o Options, n int) *Result {
	t.Helper()
	peers := make([]ShardPeer, n)
	for i := range peers {
		s, err := NewShardSession(o, i, n)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = s
	}
	res, err := RunSharded(o, peers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// normalizeTiming zeroes the wall-clock fields so results compare
// structurally.
func normalizeTiming(r *Result) {
	r.Elapsed = 0
	r.StatesPerSec = 0
}

// TestShardedEquivalence checks that sharded exploration merges to the
// byte-identical Result JSON of a single-process run, for several
// shard counts, one and two workers per session, protocols, symmetry
// and POR modes, and seeded mutants whose counterexamples must survive
// the cross-shard trace rebuild.
func TestShardedEquivalence(t *testing.T) {
	cases := []struct {
		proto, inject string
		procs, blocks int
		sym, por      bool
	}{
		{proto: "bitar", procs: 2, blocks: 2, sym: true},
		{proto: "bitar", procs: 3, blocks: 1, sym: false},
		{proto: "locke", procs: 2, blocks: 2, sym: true},
		{proto: "illinois", procs: 3, blocks: 2, sym: true},
		{proto: "bitar", inject: "ignore-lock", procs: 3, blocks: 1, sym: true},
		{proto: "locke", inject: "stale-lock-grant", procs: 2, blocks: 2, sym: false},
		{proto: "berkeley", inject: "skip-writeback", procs: 2, blocks: 2, sym: true},
		{proto: "bitar", procs: 3, blocks: 2, sym: true, por: true},
		// rudolph's tag-only lines are the one exception to POR's
		// per-block argument (see por.go).
		{proto: "rudolph", procs: 3, blocks: 2, sym: false, por: true},
		{proto: "illinois", inject: "drop-invalidate", procs: 2, blocks: 2, sym: true, por: true},
		{proto: "locke", inject: "stale-lock-grant", procs: 2, blocks: 2, sym: false, por: true},
	}
	for _, c := range cases {
		c := c
		name := c.proto
		if c.inject != "" {
			name += "+" + c.inject
		}
		if c.por {
			name += "/por"
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
			o := Options{Protocol: mk(), Procs: c.procs, Blocks: c.blocks, Depth: 5, Workers: 1, Symmetry: c.sym, POR: c.por}
			single, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			normalizeTiming(single)
			want, err := json.Marshal(single)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				for _, n := range []int{1, 2, 3, 5} {
					so := o
					so.Protocol = mk()
					so.Workers = workers
					sharded := runShardedInProc(t, so, n)
					normalizeTiming(sharded)
					if sharded.Workers != workers {
						t.Fatalf("workers=%d shards=%d: result reports %d workers", workers, n, sharded.Workers)
					}
					sharded.Workers = single.Workers
					got, err := json.Marshal(sharded)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Fatalf("workers=%d shards=%d: result differs\n got %s\nwant %s", workers, n, got, want)
					}
				}
			}
		})
	}
}

// TestShardedTruncation checks MaxStates parity with the single
// process, unreduced and under POR: same Truncated flag, state count
// and depth at the cap.
func TestShardedTruncation(t *testing.T) {
	for _, o := range []Options{
		{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 6, Workers: 1, MaxStates: 200},
		{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 5, Workers: 1, Symmetry: true, POR: true, MaxStates: 120},
	} {
		single, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Protocol = protocol.MustNew("bitar")
		sharded := runShardedInProc(t, o, 3)
		if !single.Truncated || !sharded.Truncated {
			t.Fatalf("por=%v: expected truncation: single=%v sharded=%v", o.POR, single.Truncated, sharded.Truncated)
		}
		if single.States != sharded.States || single.DepthReached != sharded.DepthReached {
			t.Fatalf("por=%v: truncation diverged: states %d vs %d, depth %d vs %d",
				o.POR, single.States, sharded.States, single.DepthReached, sharded.DepthReached)
		}
	}
}
