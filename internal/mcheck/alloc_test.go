package mcheck

import (
	"runtime"
	"testing"

	"cachesync/internal/protocol"
)

// exploreMallocs runs one exploration on a single worker and returns
// its transitions and the heap allocations it made.
func exploreMallocs(t *testing.T, o Options) (transitions int64, mallocs uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("unexpected counterexample: %v", res.Counterexample.Violations)
	}
	return res.Transitions, after.Mallocs - before.Mallocs
}

// TestExpandSteadyStateAllocs is the allocs-per-transition gate of the
// checker, the counterpart of TestSimSteadyStateAllocs: an exploration
// has costs that grow with its levels and states (goroutines per level,
// the visited store, the frontier), but one explored transition —
// restore, step, encode, canonicalize — must not allocate. Bus records
// come from a per-machine pool, the invariant suite builds messages
// only for a violation, and canonicalization works in canonizer
// scratch. Comparing a shallow and a deep bound isolates the marginal
// cost. The configurations cover the lock path (bitar), the update
// path (dragon), a multi-block invalidation protocol (illinois) and the
// partial-broadcast directory (censier), with and without symmetry.
func TestExpandSteadyStateAllocs(t *testing.T) {
	const perTransitionMax = 0.01
	for _, tc := range []struct {
		proto          string
		blocks         int
		shallow, deep  int
		symmetry       bool
		maxDeepMallocs uint64 // 0: no bound on the whole run
	}{
		// The depth pairs sit where the state space has begun to
		// saturate: the extra levels add many transitions per new
		// state, so the store's amortized growth and the few
		// allocations of each level stay far below the limit.
		{proto: "bitar", blocks: 1, shallow: 5, deep: 7, maxDeepMallocs: 5000},
		{proto: "bitar", blocks: 1, shallow: 6, deep: 8, symmetry: true},
		{proto: "dragon", blocks: 2, shallow: 4, deep: 5},
		{proto: "dragon", blocks: 2, shallow: 5, deep: 7, symmetry: true},
		{proto: "illinois", blocks: 2, shallow: 4, deep: 5},
		{proto: "illinois", blocks: 2, shallow: 5, deep: 7, symmetry: true},
		{proto: "censier", blocks: 2, shallow: 4, deep: 5},
		{proto: "censier", blocks: 2, shallow: 5, deep: 7, symmetry: true},
	} {
		o := Options{Protocol: protocol.MustNew(tc.proto), Procs: 3, Blocks: tc.blocks, Words: 2,
			Workers: 1, Symmetry: tc.symmetry}
		o.Depth = tc.shallow
		exploreMallocs(t, o) // warm-up: compiled tables and other one-time costs
		st, sm := exploreMallocs(t, o)
		o.Depth = tc.deep
		dt, dm := exploreMallocs(t, o)
		var marginal float64
		if dm > sm {
			marginal = float64(dm-sm) / float64(dt-st)
		}
		t.Logf("%s b%d sym=%v: d%d %d transitions %d allocs, d%d %d transitions %d allocs, marginal %.5f/transition",
			tc.proto, tc.blocks, tc.symmetry, tc.shallow, st, sm, tc.deep, dt, dm, marginal)
		if marginal > perTransitionMax {
			t.Errorf("%s b%d symmetry=%v: %.5f allocs per transition over %d extra transitions (limit %.2f) — the transition loop is allocating",
				tc.proto, tc.blocks, tc.symmetry, marginal, dt-st, perTransitionMax)
		}
		if tc.maxDeepMallocs > 0 && dm > tc.maxDeepMallocs {
			t.Errorf("%s b%d depth %d: %d allocations for the whole exploration, limit %d",
				tc.proto, tc.blocks, tc.deep, dm, tc.maxDeepMallocs)
		}
	}
}

// storeAllocBytes is the heap a store holds for its live tables: the
// arena slabs and their lists, each table's block list and slots, and
// the sealed fingerprint sets — capacities, not lengths.
func storeAllocBytes(st *spillStore) int64 {
	var b int64
	for _, a := range st.arenas {
		for i := range a.recs {
			b += int64(cap(a.recs[i]))*8 + int64(cap(a.edges[i]))
		}
		b += int64(cap(a.recs)+cap(a.edges))*24 + int64(cap(a.free))*4
	}
	for s := range st.shards {
		t := st.shards[s].live
		b += int64(cap(t.slots)+cap(t.blocks))*4 + st.shards[s].fp.bytes()
	}
	return b
}

// TestStoreBytesPerState pins what the visited store allocates per
// state, unused block and slab capacity, block lists and hash slots
// included, on an exhaustive exploration over one session and a
// symmetric one over one session and three. An entry is its key, its
// hash and its 32-byte edge record (136 bytes at bitar p3 b1, 232 at
// b2), held once in arena slabs that never move; the rest is less
// than one block per table, one slab per arena, and the slots, whose
// 256-slot minimum per table dominates the three-session run's 192
// small tables. Each limit is the measured value plus about 2%. At
// two workers each session fills two arenas from concurrent absorb
// workers, which is what the race detector run of this test covers.
func TestStoreBytesPerState(t *testing.T) {
	bitar := protocol.MustNew("bitar")
	for _, tc := range []struct {
		name     string
		o        Options
		sessions int
		max      float64 // bytes per state; measured 146.9, 258.0, 304.6
	}{
		{"bitar-p3-d7", Options{Protocol: bitar, Procs: 3, Blocks: 1, Depth: 7}, 1, 150},
		{"bitar-p3-b2-d4-sym", Options{Protocol: bitar, Procs: 3, Blocks: 2, Depth: 4, Symmetry: true}, 1, 264},
		{"bitar-p3-b2-d4-sym", Options{Protocol: bitar, Procs: 3, Blocks: 2, Depth: 4, Symmetry: true}, 3, 312},
	} {
		for w := 1; w <= 2; w++ {
			o := tc.o
			o.Words, o.Workers = 2, w
			peers := make([]ShardPeer, tc.sessions)
			sessions := make([]*ShardSession, tc.sessions)
			for i := range peers {
				s, err := NewShardSession(o, i, tc.sessions)
				if err != nil {
					t.Fatal(err)
				}
				peers[i], sessions[i] = s, s
			}
			res, err := RunSharded(o, peers)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counterexample != nil || res.DepthReached != o.Depth {
				t.Fatalf("%s: explored to depth %d of %d, counterexample %v", tc.name, res.DepthReached, o.Depth, res.Counterexample)
			}
			var b int64
			for _, s := range sessions {
				b += storeAllocBytes(s.st)
				s.Close()
			}
			per := float64(b) / float64(res.States)
			t.Logf("%s over %d session(s), %d worker(s): %d states, %d store bytes, %.1f per state",
				tc.name, tc.sessions, w, res.States, b, per)
			if per > tc.max {
				t.Errorf("%s over %d session(s), %d worker(s): the store holds %.1f bytes per state, limit %.0f",
					tc.name, tc.sessions, w, per, tc.max)
			}
		}
	}
}
