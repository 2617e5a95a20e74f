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
