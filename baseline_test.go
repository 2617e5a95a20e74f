package cachesync_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"cachesync"
	"cachesync/internal/aquarius"
	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// The BENCH_*.json files pin the deterministic numbers of fourteen
// fixed configurations: the final simulated clock of the one-tier
// engine (BENCH_sim.json) and of the routed two-tier machine, with
// Figure 11's broadcast and total reference counts
// (BENCH_aquarius.json), and the checker's states, transitions and,
// for the disk-backed run, spilled states, bytes and runs
// (BENCH_mcheck.json). Each entry holds a configuration and its
// counts, nothing measured in wall-clock time. The bench/ module reads
// the same files to check its own seed-1 runs.

// baselineConfig is the union of the three files' configuration
// fields.
type baselineConfig struct {
	Name      string `json:"name"`
	Protocol  string `json:"protocol"`
	Workload  string `json:"workload"`
	Procs     int    `json:"procs"`
	Ops       int    `json:"ops"`
	LockIters int    `json:"lock_iters"`
	Remote    int    `json:"remote"`
	Blocks    int    `json:"blocks"`
	Words     int    `json:"words"`
	Depth     int    `json:"depth"`
	Symmetry  bool   `json:"symmetry"`
	POR       bool   `json:"por"`
	MemBudget int64  `json:"mem_budget"`
	// SpillOf names the in-RAM entry that explores what this
	// MemBudget entry explores.
	SpillOf string `json:"spill_of"`
}

// baselineCounts is the union of the three files' counts. A count an
// entry's kind does not produce is zero in both the file and the run.
type baselineCounts struct {
	Cycles        int64 `json:"cycles"`
	BroadcastRefs int64 `json:"broadcast_refs"`
	TotalRefs     int64 `json:"total_refs"`
	States        int64 `json:"states"`
	Transitions   int64 `json:"transitions"`
	SpilledStates int64 `json:"spilled_states"`
	SpilledBytes  int64 `json:"spilled_bytes"`
	SpillRuns     int64 `json:"spill_runs"`
}

type baselineEntry struct {
	baselineConfig
	baselineCounts
}

// mcheckBaselines names BENCH_mcheck.json's entries.
var mcheckBaselines = []string{"bitar-p3-d7", "bitar-p3-d7-sym", "illinois-p3-b2-d7",
	"dragon-p3-b2-d7-sym", "bitar-p3-b2-d6", "bitar-p3-b2-d6-por", "bitar-p3-b2-d6-spill"}

// readBaseline decodes one BENCH_*.json file and requires it to hold
// exactly the named entries, in order, and no field outside
// baselineEntry.
func readBaseline(tb testing.TB, file string, names ...string) []baselineEntry {
	tb.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		tb.Fatal(err)
	}
	var f struct {
		Entries []baselineEntry `json:"entries"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		tb.Fatalf("%s: %v", file, err)
	}
	got := make([]string, len(f.Entries))
	for i, e := range f.Entries {
		got[i] = e.Name
	}
	if !slices.Equal(got, names) {
		tb.Fatalf("%s holds entries %q, want %q", file, got, names)
	}
	return f.Entries
}

// runSimEntry runs a BENCH_sim.json configuration on the one-tier
// engine: the mixed workload, or the lock workload under the
// protocol's best scheme.
func runSimEntry(c baselineConfig) (baselineCounts, error) {
	scheme, err := cachesync.BestScheme(c.Protocol)
	if err != nil {
		return baselineCounts{}, err
	}
	m, err := cachesync.New(cachesync.Config{Protocol: c.Protocol, Procs: c.Procs})
	if err != nil {
		return baselineCounts{}, err
	}
	var progs []cachesync.Program
	switch c.Workload {
	case "mixed":
		progs = workload.Mixed{Ops: c.Ops, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}.Programs(m.Layout(), c.Procs)
	case "lock":
		progs = workload.LockContention{Locks: 1, Iters: c.LockIters, HoldCycles: 20,
			ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: 1}.Programs(m.Layout(), c.Procs)
	default:
		return baselineCounts{}, fmt.Errorf("unknown workload %q", c.Workload)
	}
	if err := m.RunPrograms(progs); err != nil {
		return baselineCounts{}, err
	}
	return baselineCounts{Cycles: m.Clock()}, nil
}

// runAquariusEntry runs a BENCH_aquarius.json configuration on the
// routed two-tier machine.
func runAquariusEntry(c baselineConfig) (baselineCounts, error) {
	cfg := aquarius.DefaultConfig(c.Procs)
	cfg.Routed = true
	cfg.RemoteCycles = c.Remote
	a := aquarius.New(cfg)
	l := workload.Layout{G: a.Sync.Geometry()}
	var progs []sim.Program
	switch c.Workload {
	case "mixed":
		progs = workload.Mixed{Ops: c.Ops, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}.Programs(l, c.Procs)
	case "lockdata":
		progs = workload.LockedData{Locks: 1, Iters: c.LockIters, Records: 6, Instrs: 4, Think: 20,
			Scheme: syncprim.SchemeFor(a.Sync.Protocol()), Seed: 1}.Programs(l, c.Procs)
	default:
		return baselineCounts{}, fmt.Errorf("unknown workload %q", c.Workload)
	}
	if err := a.RunPrograms(progs); err != nil {
		return baselineCounts{}, err
	}
	broadcast, total := a.BroadcastFraction()
	return baselineCounts{Cycles: a.Clock(), BroadcastRefs: broadcast, TotalRefs: total}, nil
}

// runMcheckEntry explores a BENCH_mcheck.json configuration with
// GOMAXPROCS workers; every count it returns is the same for any
// worker count.
func runMcheckEntry(c baselineConfig) (*mcheck.Result, error) {
	p, err := protocol.New(c.Protocol)
	if err != nil {
		return nil, err
	}
	res, err := mcheck.Run(mcheck.Options{
		Protocol: p, Procs: c.Procs, Blocks: c.Blocks, Words: c.Words, Depth: c.Depth,
		Workers: runtime.GOMAXPROCS(0), Symmetry: c.Symmetry, POR: c.POR, MemBudget: c.MemBudget,
	})
	if err != nil {
		return nil, err
	}
	if res.Counterexample != nil {
		return nil, fmt.Errorf("unexpected violation %v", res.Counterexample.Violations)
	}
	return res, nil
}

func mcheckCounts(res *mcheck.Result) baselineCounts {
	return baselineCounts{States: res.States, Transitions: res.Transitions,
		SpilledStates: res.SpilledStates, SpilledBytes: res.SpilledBytes, SpillRuns: int64(res.SpillRuns)}
}

// TestBaselineCounts runs every BENCH_*.json configuration once and
// requires every count to match its file exactly, on any host: a
// changed count means the simulation or the exploration changed.
func TestBaselineCounts(t *testing.T) {
	check := func(e baselineEntry, got baselineCounts, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
		} else if got != e.baselineCounts {
			t.Errorf("%s: counts %+v, baseline has %+v", e.Name, got, e.baselineCounts)
		}
	}
	for _, e := range readBaseline(t, "BENCH_sim.json",
		"mixed-bitar-p8", "mixed-illinois-p8", "mixed-dragon-p8", "mixed-writethrough-p8", "lock-bitar-p8") {
		got, err := runSimEntry(e.baselineConfig)
		check(e, got, err)
	}
	for _, e := range readBaseline(t, "BENCH_aquarius.json", "twotier-mixed-p8", "remote-lockdata-p8") {
		got, err := runAquariusEntry(e.baselineConfig)
		check(e, got, err)
	}
	explored := map[string]baselineCounts{}
	entries := readBaseline(t, "BENCH_mcheck.json", mcheckBaselines...)
	for _, e := range entries {
		var got baselineCounts
		res, err := runMcheckEntry(e.baselineConfig)
		if err == nil {
			got = mcheckCounts(res)
		}
		check(e, got, err)
		explored[e.Name] = got
	}
	// A budget that spills nothing measures nothing, and spilling must
	// not change what the exploration reaches.
	for _, e := range entries {
		if e.MemBudget == 0 {
			continue
		}
		got, sib := explored[e.Name], explored[e.SpillOf]
		if got.SpilledStates == 0 {
			t.Errorf("%s: budget %d spilled no state", e.Name, e.MemBudget)
		}
		if got.States != sib.States || got.Transitions != sib.Transitions {
			t.Errorf("%s explored %d/%d states/transitions, its in-RAM sibling %q %d/%d",
				e.Name, got.States, got.Transitions, e.SpillOf, sib.States, sib.Transitions)
		}
	}
}

// BenchmarkSpillVsRAM explores each BENCH_mcheck.json MemBudget
// configuration and its in-RAM sibling once per iteration and fails
// when the disk-backed run's states/s falls below half the sibling's.
// Both runs share one process and host, so the floor holds on any
// machine; verify.sh runs this once (-benchtime 1x) as its wall-clock
// check on the spill path.
func BenchmarkSpillVsRAM(b *testing.B) {
	entries := readBaseline(b, "BENCH_mcheck.json", mcheckBaselines...)
	byName := map[string]baselineConfig{}
	for _, e := range entries {
		byName[e.Name] = e.baselineConfig
	}
	for _, e := range entries {
		if e.MemBudget == 0 {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			for range b.N {
				ram, err := runMcheckEntry(byName[e.SpillOf])
				if err != nil {
					b.Fatal(err)
				}
				spill, err := runMcheckEntry(e.baselineConfig)
				if err != nil {
					b.Fatal(err)
				}
				ratio := spill.StatesPerSec / ram.StatesPerSec
				b.ReportMetric(ratio, "spill/ram")
				if ratio < 0.5 {
					b.Fatalf("%s: %.0f states/s, below half its in-RAM sibling's %.0f",
						e.Name, spill.StatesPerSec, ram.StatesPerSec)
				}
			}
		})
	}
}
