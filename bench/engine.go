package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cachesync"
	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/coherence"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/trace"
	"cachesync/internal/workload"
)

// The engine workload: a closed loop, one goroutine, over nine machine
// configurations × 16 seeds. Every run builds a fresh machine whose
// caches start empty, as a user's run does.

const (
	engineProcs = 8
	engineSeeds = 16
	engineOps   = 2000 // per processor, mixed workloads
	engineIters = 100  // per processor, lock workloads
)

// engineConfig is one machine configuration of the rotation.
type engineConfig struct {
	name     string
	protocol string // one-tier machines
	kind     string // mixed | lock | twotier | lockdata | trace
	priv     int    // private blocks per processor (mixed kinds)
	remote   int    // lower-tier one-way latency (two-tier kinds)
	ref      string // entry in BENCH_sim.json or BENCH_aquarius.json checked at seed 1
}

var engineConfigs = []engineConfig{
	{name: "mixed-bitar", protocol: "bitar", kind: "mixed", priv: 24, ref: "mixed-bitar-p8"},
	{name: "mixed-illinois", protocol: "illinois", kind: "mixed", priv: 24, ref: "mixed-illinois-p8"},
	{name: "mixed-dragon", protocol: "dragon", kind: "mixed", priv: 24, ref: "mixed-dragon-p8"},
	{name: "mixed-writethrough", protocol: "writethrough", kind: "mixed", priv: 24, ref: "mixed-writethrough-p8"},
	// 96 private blocks per processor against 64 ways: every cache evicts.
	{name: "mixed-evict-bitar", protocol: "bitar", kind: "mixed", priv: 96},
	{name: "lock-bitar", protocol: "bitar", kind: "lock", ref: "lock-bitar-p8"},
	{name: "twotier-mixed", kind: "twotier", priv: 24, ref: "twotier-mixed-p8"},
	{name: "remote-lockdata", kind: "lockdata", remote: 64, ref: "remote-lockdata-p8"},
	// A mixed trace generated in setup, decoded and replayed every run
	// through Machine.Run — the blocking-shim path.
	{name: "trace-mixed-bitar", protocol: "bitar", kind: "trace"},
}

// ops is the simulated work one run does: memory references for the
// mixed and trace kinds, lock acquisitions for the lock kinds.
func (c engineConfig) ops() int64 {
	switch c.kind {
	case "lock", "lockdata":
		return engineProcs * engineIters
	default:
		return engineProcs * engineOps
	}
}

func (c engineConfig) mixed(seed int64) workload.Mixed {
	return workload.Mixed{Ops: engineOps, SharedBlocks: 8, PrivBlocks: c.priv,
		SharedFrac: 0.3, WriteFrac: 0.35, Seed: seed}
}

// engineSeed derives the i-th of a configuration's 16 seeds; the first
// is the run's seed itself, so seed 1 reproduces the committed baselines.
func engineSeed(seed int64, i int) int64 { return seed + 1000*int64(i) }

// engineRun is one finished simulation.
type engineRun struct {
	clock     int64
	stats     map[string]int64
	broadcast [2]int64      // synchronization-tier and total routed references
	total     time.Duration // build + workload construction + run: the operation's latency
	run       time.Duration // the throughput timer of sim.mops: run, plus decode for traces
}

// runEngineOnce builds a fresh machine for c, runs it and checks the
// final state with the coherence checker. Spans, when tr is set, hang
// under op.
func runEngineOnce(c engineConfig, seed int64, traceText []byte, tr *tracer, op uint64) (engineRun, error) {
	var r engineRun
	t0 := time.Now()
	var m *cachesync.Machine
	var aq *aquarius.System
	var sys *sim.System
	if c.kind == "twotier" || c.kind == "lockdata" {
		cfg := aquarius.DefaultConfig(engineProcs)
		cfg.Routed = true
		cfg.RemoteCycles = c.remote
		aq = aquarius.New(cfg)
		sys = aq.Sync
	} else {
		var err error
		if m, err = cachesync.New(cachesync.Config{Protocol: c.protocol, Procs: engineProcs}); err != nil {
			return r, err
		}
		sys = m.System()
	}
	t1 := time.Now()
	tr.record(0, op, op, "sim.build", t0, t1, nil)

	l := workload.Layout{G: sys.Geometry()}
	scheme := syncprim.SchemeFor(sys.Protocol())
	var progs []sim.Program
	switch c.kind {
	case "mixed", "twotier":
		progs = c.mixed(seed).Programs(l, engineProcs)
	case "lock":
		progs = workload.LockContention{Locks: 1, Iters: engineIters, HoldCycles: 20,
			ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: seed}.Programs(l, engineProcs)
	case "lockdata":
		progs = workload.LockedData{Locks: 1, Iters: engineIters, Records: 6, Instrs: 4,
			Think: 20, Scheme: scheme, Seed: seed}.Programs(l, engineProcs)
	}
	t2 := time.Now()
	if progs != nil {
		tr.record(0, op, op, "workload.build", t1, t2, nil)
	}

	var err error
	runStart := t2
	switch {
	case c.kind == "trace":
		var tc *trace.Trace
		if tc, err = trace.Decode(bytes.NewReader(traceText)); err != nil {
			return r, err
		}
		t3 := time.Now()
		tr.record(0, op, op, "trace.decode", t2, t3, map[string]int64{"events": int64(len(tc.Events))})
		runStart = t3
		err = m.Run(tc.Workloads(engineProcs))
	case aq != nil:
		err = aq.RunPrograms(progs)
	default:
		err = m.RunPrograms(progs)
	}
	t4 := time.Now()
	if err != nil {
		return r, err
	}
	r.run = t4.Sub(t2)
	r.total = t4.Sub(t0)
	tr.record(0, op, op, "sim.run", runStart, t4, map[string]int64{"ops": c.ops()})

	violations := coherence.Check(sys)
	t5 := time.Now()
	tr.record(0, op, op, "coherence.check", t4, t5, nil)
	if len(violations) > 0 {
		return r, fmt.Errorf("final state incoherent: %s", strings.Join(violations, "; "))
	}
	if aq != nil {
		r.clock, r.stats = aq.Clock(), aq.Stats().Snapshot()
		r.broadcast[0], r.broadcast[1] = aq.BroadcastFraction()
	} else {
		r.clock, r.stats = m.Clock(), m.Stats()
	}
	return r, nil
}

// mixedTrace generates the text trace the trace config replays: the
// same mixed reference pattern as `tracegen -pattern mixed`, p8 × 2000.
func mixedTrace(seed int64) ([]byte, error) {
	g := addr.MustGeometry(4, 4)
	rng := rand.New(rand.NewSource(seed))
	t := &trace.Trace{}
	for p := 0; p < engineProcs; p++ {
		for k := 0; k < engineOps; k++ {
			var a addr.Addr
			if rng.Float64() < 0.3 {
				a = g.Base(addr.Block(64 + rng.Intn(8)))
			} else {
				a = g.Base(addr.Block(64 + 4096 + p*4096 + rng.Intn(16)))
			}
			a += addr.Addr(rng.Intn(g.BlockWords))
			if rng.Float64() < 0.35 {
				t.Events = append(t.Events, trace.Event{Proc: p, Kind: trace.Write, Addr: a, Value: uint64(k)})
			} else {
				t.Events = append(t.Events, trace.Event{Proc: p, Kind: trace.Read, Addr: a})
			}
		}
	}
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// engineInst holds the traces and the warm-up twin of every
// (configuration, seed) run.
type engineInst struct {
	e      *env
	traces [engineSeeds][]byte
	twins  [][engineSeeds]engineRun
	next   int // rotation position, kept across loops
}

func setupEngine(e *env) (instance, error) {
	inst := &engineInst{e: e, twins: make([][engineSeeds]engineRun, len(engineConfigs))}
	for i := 0; i < engineSeeds; i++ {
		t, err := mixedTrace(engineSeed(e.opts.seed, i))
		if err != nil {
			return nil, err
		}
		inst.traces[i] = t
	}
	for ci, c := range engineConfigs {
		for si := 0; si < engineSeeds; si++ {
			r, err := runEngineOnce(c, engineSeed(e.opts.seed, si), inst.traces[si], nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", c.name, err)
			}
			inst.twins[ci][si] = r
		}
	}
	if e.opts.seed == 1 {
		checkEngineBaselines(e, inst.twins)
	}
	return inst, nil
}

// checkEngineBaselines compares seed-1 cycles (and, for the two-tier
// configs, broadcast references) with the committed engine baselines.
// The files are read, never written; a missing file skips its checks.
func checkEngineBaselines(e *env, twins [][engineSeeds]engineRun) {
	type entry struct {
		Name          string `json:"name"`
		Cycles        int64  `json:"cycles"`
		BroadcastRefs int64  `json:"broadcast_refs"`
		TotalRefs     int64  `json:"total_refs"`
	}
	refs := map[string]entry{}
	for _, file := range []string{"BENCH_sim.json", "BENCH_aquarius.json"} {
		data, err := os.ReadFile(filepath.Join(e.root, file))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s not readable, its cycle checks are skipped: %v\n", file, err)
			continue
		}
		var f struct{ Entries []entry }
		if err := json.Unmarshal(data, &f); err != nil {
			e.tally.fail("%s: %v", file, err)
			continue
		}
		for _, en := range f.Entries {
			refs[en.Name] = en
		}
	}
	for ci, c := range engineConfigs {
		ref, ok := refs[c.ref]
		if c.ref == "" || !ok {
			continue
		}
		got := twins[ci][0]
		e.tally.expect(got.clock == ref.Cycles, "%s seed 1: %d cycles, baseline %s has %d", c.name, got.clock, c.ref, ref.Cycles)
		if ref.TotalRefs > 0 {
			e.tally.expect(got.broadcast == [2]int64{ref.BroadcastRefs, ref.TotalRefs},
				"%s seed 1: broadcast %d/%d, baseline %d/%d", c.name, got.broadcast[0], got.broadcast[1], ref.BroadcastRefs, ref.TotalRefs)
		}
	}
}

func (inst *engineInst) run(d time.Duration, tr *tracer) (*loopResult, error) {
	lr := newLoopResult(len(engineConfigs))
	start := time.Now()
	for time.Since(start) < d {
		ci, si := inst.next%len(engineConfigs), (inst.next/len(engineConfigs))%engineSeeds
		inst.next++
		c := engineConfigs[ci]
		op := tr.id()
		t0 := time.Now()
		r, err := runEngineOnce(c, engineSeed(inst.e.opts.seed, si), inst.traces[si], tr, op)
		v0 := time.Now()
		if err != nil {
			inst.e.tally.fail("%s seed %d: %v", c.name, engineSeed(inst.e.opts.seed, si), err)
		} else {
			twin := inst.twins[ci][si]
			inst.e.tally.expect(r.clock == twin.clock && maps.Equal(r.stats, twin.stats),
				"%s seed %d: statistics differ from the warm-up run", c.name, engineSeed(inst.e.opts.seed, si))
			lr.add(ci, r.total)
		}
		tr.record(0, op, op, "bench.verify", v0, time.Now(), nil)
		tr.record(op, 0, op, "bench.op", t0, time.Now(), nil)
	}
	return lr, nil
}

func (inst *engineInst) close() {}

// engineLadder measures the simulator's layers on a fixed amount of
// work: per-config throughput and cycles, the generator alone, the
// engine per bus transaction, allocations, the two-tier routing tax,
// trace decode and the shim tax, machine build time, and the exact
// simulated statistics a simulator-only change must not move.
func engineLadder(e *env, m metrics, _ *tracer) error {
	reps := 2 * engineSeeds
	if e.opts.quick {
		reps = 1
	}
	var traces [engineSeeds][]byte
	for i := range traces {
		t, err := mixedTrace(engineSeed(e.opts.seed, i))
		if err != nil {
			return err
		}
		traces[i] = t
	}
	first := map[string]engineRun{}
	nsPerOp := map[string]float64{}
	var decode []time.Duration
	for _, c := range engineConfigs {
		var rs []time.Duration
		for k := 0; k < reps; k++ {
			si := k % engineSeeds
			r, err := runEngineOnce(c, engineSeed(e.opts.seed, si), traces[si], nil, 0)
			if err != nil {
				e.tally.fail("ladder %s: %v", c.name, err)
				continue
			}
			e.tally.ok()
			if k == 0 {
				first[c.name] = r
			}
			rs = append(rs, r.run)
		}
		if len(rs) == 0 {
			return fmt.Errorf("ladder %s: no successful run", c.name)
		}
		p10 := quantile(seconds(rs), 0.1)
		m.set("sim.mops."+c.name, float64(c.ops())/p10/1e6, "Mops/s")
		m.set("sim.cycles."+c.name, float64(first[c.name].clock), "cycles")
		nsPerOp[c.name] = p10 * 1e9 / float64(c.ops())
	}
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		if _, err := trace.Decode(bytes.NewReader(traces[k%engineSeeds])); err != nil {
			return err
		}
		decode = append(decode, time.Since(t0))
	}
	decodeNS := quantile(seconds(decode), 0.1) * 1e9 / float64(engineProcs*engineOps)
	m.set("trace.decode_ns_per_event", decodeNS, "ns")
	// The shim tax compares replay alone, decode excluded.
	m.set("trace.shim_tax", (nsPerOp["trace-mixed-bitar"]-decodeNS)/nsPerOp["mixed-bitar"], "ratio")
	m.set("aquarius.route_tax", nsPerOp["twotier-mixed"]/nsPerOp["mixed-bitar"], "ratio")

	// The generator alone: Mixed Program.Next with no processor.
	gen := measureGenerator(e.opts.seed, reps)
	m.set("workload.ns_per_op", gen, "ns")
	m.set("workload.share", gen/nsPerOp["mixed-bitar"], "ratio")

	bitar := engineConfigs[0]
	st := first[bitar.name].stats
	txns := busTxns(st)
	m.set("sim.ns_per_txn", nsPerOp[bitar.name]*float64(bitar.ops())/float64(txns), "ns")
	m.set("bus.txn_per_op", float64(txns)/float64(bitar.ops()), "count")
	m.set("bus.util", float64(st["bus.cycles"])/float64(first[bitar.name].clock), "ratio")
	m.set("snoop.useful_ratio", float64(st["snoop.tagmatch"])/float64(st["snoop.seen"]), "ratio")
	hits, misses := prefixSum(st, "proc.hit."), prefixSum(st, "proc.miss.")
	m.set("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	evict := first["mixed-evict-bitar"]
	m.set("cache.evict_per_op", float64(prefixSum(evict.stats, "evict."))/float64(engineProcs*engineOps), "count")
	two := first["twotier-mixed"]
	m.set("aquarius.broadcast_frac", float64(two.broadcast[0])/float64(two.broadcast[1]), "ratio")
	m.set("xbar.bank_wait_per_access", float64(two.stats["xbar.bank-wait"])/float64(two.stats["xbar.access"]), "cycles")

	allocs, build := measureAllocsAndBuild(e.opts.seed, reps)
	m.set("sim.allocs_per_op", allocs, "count")
	m.set("sim.build_us", build, "us")
	return nil
}

// measureGenerator times the Mixed generator's Program.Next driven with
// a nil processor, fast decile over reps, in ns per operation.
func measureGenerator(seed int64, reps int) float64 {
	g := addr.MustGeometry(4, 4)
	l := workload.Layout{G: g}
	var ts []time.Duration
	for k := 0; k < reps; k++ {
		progs := engineConfigs[0].mixed(engineSeed(seed, k%engineSeeds)).Programs(l, engineProcs)
		t0 := time.Now()
		for _, p := range progs {
			for {
				if _, ok := p.Next(nil, sim.Result{}); !ok {
					break
				}
			}
		}
		ts = append(ts, time.Since(t0))
	}
	return quantile(seconds(ts), 0.1) * 1e9 / float64(engineProcs*engineOps)
}

// measureAllocsAndBuild returns heap allocations per simulated
// operation of a mixed-bitar RunPrograms call, and the median
// microseconds one cachesync.New takes.
func measureAllocsAndBuild(seed int64, reps int) (allocsPerOp, buildUS float64) {
	var ms runtime.MemStats
	var allocs []float64
	var builds []float64
	c := engineConfigs[0]
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		mach, err := cachesync.New(cachesync.Config{Protocol: c.protocol, Procs: engineProcs})
		if err != nil {
			continue
		}
		builds = append(builds, float64(time.Since(t0))/float64(time.Microsecond))
		progs := c.mixed(engineSeed(seed, k%engineSeeds)).Programs(mach.Layout(), engineProcs)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := mach.RunPrograms(progs); err != nil {
			continue
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(c.ops()))
	}
	return median(allocs), median(builds)
}

// busTxns counts bus transactions: every bus.<command> counter except
// the cycle and word totals.
func busTxns(st map[string]int64) int64 {
	var n int64
	for k, v := range st {
		if strings.HasPrefix(k, "bus.") && k != "bus.cycles" && k != "bus.words" {
			n += v
		}
	}
	return n
}

func prefixSum(st map[string]int64, prefix string) int64 {
	var n int64
	for k, v := range st {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
