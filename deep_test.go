package cachesync_test

import (
	"encoding/json"
	"testing"

	"cachesync/internal/golden"
	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
)

// TestDeepCheckGolden reruns the pinned disk-backed exhaustive check,
// bitar at p=4 with symmetry and partial-order reduction under a
// 256 KiB visited-set budget, far below the ~1 MiB the visited set
// compresses to on disk, so the exploration provably runs disk-backed.
// Its summary must match DEEP_mcheck.json byte for byte. That file is
// what
//
//	mcheck -protocol bitar -procs 4 -blocks 2 -words 2 -depth 14 -workers 2 \
//		-por -mem-budget 262144 -nospeedup -json -out DEEP_mcheck.json
//
// writes: the JSON array of run summaries, timing fields zeroed.
func TestDeepCheckGolden(t *testing.T) {
	res, err := mcheck.Run(mcheck.Options{
		Protocol: protocol.MustNew("bitar"), Procs: 4, Blocks: 2, Words: 2, Depth: 14,
		Workers: 2, Symmetry: true, POR: true, MemBudget: 262144,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("violation: %v", res.Counterexample.Violations)
	}
	if !res.Exhausted {
		t.Fatalf("frontier not exhausted by depth %d: the check no longer covers every reachable state", res.Depth)
	}
	res.Elapsed, res.StatesPerSec = 0, 0
	data, err := json.MarshalIndent([]*mcheck.Result{res}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "DEEP_mcheck.json", string(data)+"\n")
}
