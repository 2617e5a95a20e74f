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
// modes, and a seeded mutant whose counterexample must survive the
// cross-shard trace rebuild.
func TestShardedEquivalence(t *testing.T) {
	cases := []struct {
		proto, inject string
		procs, blocks int
		sym           bool
	}{
		{proto: "bitar", procs: 2, blocks: 2, sym: true},
		{proto: "bitar", procs: 3, blocks: 1, sym: false},
		{proto: "locke", procs: 2, blocks: 2, sym: true},
		{proto: "illinois", procs: 3, blocks: 2, sym: true},
		{proto: "bitar", inject: "ignore-lock", procs: 3, blocks: 1, sym: true},
		{proto: "locke", inject: "stale-lock-grant", procs: 2, blocks: 2, sym: false},
		{proto: "berkeley", inject: "skip-writeback", procs: 2, blocks: 2, sym: true},
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
			o := Options{Protocol: mk(), Procs: c.procs, Blocks: c.blocks, Depth: 5, Workers: 1, Symmetry: c.sym}
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
// process: same Truncated flag and state count at the cap.
func TestShardedTruncation(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 6, Workers: 1, MaxStates: 200}
	single, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Protocol = protocol.MustNew("bitar")
	sharded := runShardedInProc(t, o, 3)
	if !single.Truncated || !sharded.Truncated {
		t.Fatalf("expected truncation: single=%v sharded=%v", single.Truncated, sharded.Truncated)
	}
	if single.States != sharded.States || single.DepthReached != sharded.DepthReached {
		t.Fatalf("truncation diverged: states %d vs %d, depth %d vs %d",
			single.States, sharded.States, single.DepthReached, sharded.DepthReached)
	}
}

// TestShardedRejectsPOR pins the documented scope limit.
func TestShardedRejectsPOR(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 2, POR: true}
	if _, err := NewShardSession(o, 0, 2); err == nil {
		t.Fatal("NewShardSession accepted POR")
	}
	if _, err := RunSharded(o, []ShardPeer{nil}); err == nil {
		t.Fatal("RunSharded accepted POR")
	}
}
