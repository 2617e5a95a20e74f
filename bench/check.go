package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	"cachesync/internal/ptest"
)

// The check workload: a closed loop on one goroutine over eight
// exhaustive explorations with the serial BFS (mcheck's default).
// Exploration is exhaustive, so the seed does not change the inputs.
// Each exploration takes 15–250 ms, so a run of 25 s repeats every one
// about 25 times and its 90th percentile rests on more than one run.

const checkWorkers = 1

// checkConfig is one exploration of the rotation.
type checkConfig struct {
	name      string
	protocol  string
	procs     int
	blocks    int
	depth     int
	symmetry  bool
	por       bool
	memBudget int64
	shards    int    // > 1: mcheck.RunSharded over in-process sessions
	sameAs    string // must explore exactly what this config explores
}

var checkConfigs = []checkConfig{
	{name: "bitar-p3-d7", protocol: "bitar", procs: 3, blocks: 1, depth: 7},
	{name: "bitar-p3-d7-sym", protocol: "bitar", procs: 3, blocks: 1, depth: 7, symmetry: true},
	{name: "illinois-p3-b2-d4", protocol: "illinois", procs: 3, blocks: 2, depth: 4},
	{name: "dragon-p3-b2-d5-sym", protocol: "dragon", procs: 3, blocks: 2, depth: 5, symmetry: true},
	{name: "bitar-p3-b2-d4-sym", protocol: "bitar", procs: 3, blocks: 2, depth: 4, symmetry: true},
	{name: "bitar-p3-b2-d4-por", protocol: "bitar", procs: 3, blocks: 2, depth: 4, symmetry: true, por: true},
	// A 256 KiB visited-set budget forces the closed levels to disk.
	{name: "bitar-p3-b2-d4-spill", protocol: "bitar", procs: 3, blocks: 2, depth: 4, symmetry: true,
		memBudget: 256 << 10, sameAs: "bitar-p3-b2-d4-sym"},
	{name: "bitar-p3-b2-d4-shard3", protocol: "bitar", procs: 3, blocks: 2, depth: 4, symmetry: true,
		shards: 3, sameAs: "bitar-p3-b2-d4-sym"},
}

func (c checkConfig) options() mcheck.Options {
	return mcheck.Options{Protocol: protocol.MustNew(c.protocol), Procs: c.procs, Blocks: c.blocks,
		Words: 2, Depth: c.depth, Workers: checkWorkers, Symmetry: c.symmetry, POR: c.por,
		MemBudget: c.memBudget}
}

// shardStats is what the timing peer wrappers saw during one sharded
// exploration. The coordinator expands all sessions concurrently, so
// call intervals are kept and their union measured.
type shardStats struct {
	mu             sync.Mutex
	expand, absorb [][2]int64 // call intervals, Unix ns
	cands          int64
	added          []int64 // per session

	// Wall time covered by expand and absorb calls, set when the
	// exploration ends.
	expandWall, absorbWall time.Duration
}

// timedPeer wraps one in-process shard session, timing the calls the
// coordinator makes and counting the candidates it mails.
type timedPeer struct {
	mcheck.ShardPeer
	self   int
	st     *shardStats
	tr     *tracer
	parent uint64
	req    uint64
}

func (p *timedPeer) Expand() (*mcheck.ShardExpandReply, error) {
	t0 := time.Now()
	r, err := p.ShardPeer.Expand()
	t1 := time.Now()
	p.st.mu.Lock()
	p.st.expand = append(p.st.expand, [2]int64{t0.UnixNano(), t1.UnixNano()})
	p.st.mu.Unlock()
	p.tr.record(0, p.parent, p.req, "mcheck.shard.expand", t0, t1, nil)
	return r, err
}

func (p *timedPeer) Absorb(seq int64, cands []mcheck.WireCand) (*mcheck.ShardAbsorbReply, error) {
	t0 := time.Now()
	r, err := p.ShardPeer.Absorb(seq, cands)
	t1 := time.Now()
	p.st.mu.Lock()
	p.st.absorb = append(p.st.absorb, [2]int64{t0.UnixNano(), t1.UnixNano()})
	p.st.cands += int64(len(cands))
	if err == nil {
		p.st.added[p.self] += r.Added
	}
	p.st.mu.Unlock()
	p.tr.record(0, p.parent, p.req, "mcheck.shard.absorb", t0, t1, nil)
	return r, err
}

// checkRun is one finished exploration.
type checkRun struct {
	res     *mcheck.Result
	elapsed time.Duration
	shard   *shardStats
	ramPeak int64 // largest visited-store RAM the progress callback saw
}

func runCheckOnce(c checkConfig, tr *tracer, op uint64) (checkRun, error) {
	opts := c.options()
	var out checkRun
	opts.Progress = func(p mcheck.ProgressInfo) {
		out.ramPeak = max(out.ramPeak, p.RAMBytes)
	}
	run := tr.id()
	t0 := time.Now()
	var err error
	if c.shards > 1 {
		out.shard = &shardStats{added: make([]int64, c.shards)}
		peers := make([]mcheck.ShardPeer, c.shards)
		for i := range peers {
			s, serr := mcheck.NewShardSession(opts, i, c.shards)
			if serr != nil {
				return out, serr
			}
			peers[i] = &timedPeer{ShardPeer: s, self: i, st: out.shard, tr: tr, parent: run, req: op}
		}
		out.res, err = mcheck.RunSharded(opts, peers)
	} else {
		out.res, err = mcheck.Run(opts)
	}
	t1 := time.Now()
	out.elapsed = t1.Sub(t0)
	if err != nil {
		return out, err
	}
	if st := out.shard; st != nil {
		st.expandWall = time.Duration(covered(st.expand, t0.UnixNano(), t1.UnixNano()))
		st.absorbWall = time.Duration(covered(st.absorb, t0.UnixNano(), t1.UnixNano()))
	}
	tr.record(run, op, op, "mcheck.run", t0, t1,
		map[string]int64{"states": out.res.States, "transitions": out.res.Transitions})
	if out.res.Counterexample != nil {
		return out, fmt.Errorf("unexpected counterexample: %v", out.res.Counterexample.Violations)
	}
	return out, nil
}

// checkInst holds each config's reference counts.
type checkInst struct {
	e    *env
	want []checkRun
	next int
}

func setupCheck(e *env) (instance, error) {
	inst := &checkInst{e: e}
	byName := map[string]checkRun{}
	for _, c := range checkConfigs {
		r, err := runCheckOnce(c, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", c.name, err)
		}
		inst.want = append(inst.want, r)
		byName[c.name] = r
	}
	for i, c := range checkConfigs {
		got := inst.want[i].res
		if c.sameAs != "" {
			ref := byName[c.sameAs].res
			e.tally.expect(got.States == ref.States && got.Transitions == ref.Transitions,
				"%s explored %d/%d states/transitions, %s %d/%d", c.name, got.States, got.Transitions,
				c.sameAs, ref.States, ref.Transitions)
		}
		if c.memBudget > 0 {
			e.tally.expect(got.SpilledStates > 0, "%s spilled no state", c.name)
		}
	}
	checkMcheckBaseline(e, inst.want)
	return inst, nil
}

// checkMcheckBaseline compares counts with BENCH_mcheck.json wherever
// it holds the same exploration. The file is read, never written.
func checkMcheckBaseline(e *env, runs []checkRun) {
	data, err := os.ReadFile(filepath.Join(e.root, "BENCH_mcheck.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCH_mcheck.json not readable, its count checks are skipped: %v\n", err)
		return
	}
	type entry struct {
		Protocol    string `json:"protocol"`
		Procs       int    `json:"procs"`
		Blocks      int    `json:"blocks"`
		Words       int    `json:"words"`
		Depth       int    `json:"depth"`
		Symmetry    bool   `json:"symmetry"`
		POR         bool   `json:"por"`
		States      int64  `json:"states"`
		Transitions int64  `json:"transitions"`
	}
	var f struct{ Entries []entry }
	if err := json.Unmarshal(data, &f); err != nil {
		e.tally.fail("BENCH_mcheck.json: %v", err)
		return
	}
	for i, c := range checkConfigs {
		for _, en := range f.Entries {
			if en.Protocol != c.protocol || en.Procs != c.procs || en.Blocks != c.blocks || en.Words != 2 ||
				en.Depth != c.depth || en.Symmetry != c.symmetry || en.POR != c.por {
				continue
			}
			got := runs[i].res
			e.tally.expect(got.States == en.States && got.Transitions == en.Transitions,
				"%s: %d/%d states/transitions, BENCH_mcheck.json has %d/%d", c.name,
				got.States, got.Transitions, en.States, en.Transitions)
			break
		}
	}
}

func (inst *checkInst) run(d time.Duration, tr *tracer) (*loopResult, error) {
	lr := newLoopResult(len(checkConfigs))
	start := time.Now()
	for time.Since(start) < d {
		ci := inst.next % len(checkConfigs)
		inst.next++
		c := checkConfigs[ci]
		op := tr.id()
		t0 := time.Now()
		r, err := runCheckOnce(c, tr, op)
		v0 := time.Now()
		if err != nil {
			inst.e.tally.fail("%s: %v", c.name, err)
		} else {
			want := inst.want[ci].res
			inst.e.tally.expect(r.res.States == want.States && r.res.Transitions == want.Transitions &&
				r.res.SpilledStates == want.SpilledStates,
				"%s: %d/%d states/transitions, warm-up had %d/%d", c.name,
				r.res.States, r.res.Transitions, want.States, want.Transitions)
			lr.add(ci, r.elapsed)
		}
		tr.record(0, op, op, "bench.verify", v0, time.Now(), nil)
		tr.record(op, 0, op, "bench.op", t0, time.Now(), nil)
	}
	return lr, nil
}

func (inst *checkInst) close() {}

// mcheckLadder measures the checker's layers: per-config throughput,
// cost per transition, one executor step, allocations and RAM per
// state, the spill and shard costs against their in-RAM sibling, the
// shard coordinator's split, and the exact reduction and spill ratios.
func mcheckLadder(e *env, m metrics, tr *tracer) error {
	reps := 5
	if e.opts.quick {
		reps = 1
	}
	rate := map[string]float64{}
	first := map[string]checkRun{}
	var shardWall, expandWall, absorbWall time.Duration
	for _, c := range checkConfigs {
		var ts []time.Duration
		for k := 0; k < reps; k++ {
			r, err := runCheckOnce(c, tr, 0)
			if err != nil {
				e.tally.fail("ladder %s: %v", c.name, err)
				continue
			}
			e.tally.ok()
			if k == 0 {
				first[c.name] = r
			}
			if r.shard != nil {
				shardWall += r.elapsed
				expandWall += r.shard.expandWall
				absorbWall += r.shard.absorbWall
			}
			ts = append(ts, r.elapsed)
		}
		if len(ts) == 0 {
			return fmt.Errorf("ladder %s: no successful run", c.name)
		}
		rate[c.name] = float64(first[c.name].res.States) / quantile(seconds(ts), 0.1)
		m.set("mcheck.kstates_s."+c.name, rate[c.name]/1e3, "kstates/s")
	}
	d7 := first["bitar-p3-d7"].res
	m.set("mcheck.ns_per_transition", 1e9*float64(d7.States)/rate["bitar-p3-d7"]/float64(d7.Transitions), "ns")

	sym, spill, shard3 := first["bitar-p3-b2-d4-sym"], first["bitar-p3-b2-d4-spill"], first["bitar-p3-b2-d4-shard3"]
	m.set("mcheck.spill_ratio", rate["bitar-p3-b2-d4-spill"]/rate["bitar-p3-b2-d4-sym"], "ratio")
	m.set("mcheck.shard_ratio", rate["bitar-p3-b2-d4-shard3"]/rate["bitar-p3-b2-d4-sym"], "ratio")
	m.set("mcheck.shard.expand_share", float64(expandWall)/float64(shardWall), "ratio")
	m.set("mcheck.shard.absorb_share", float64(absorbWall)/float64(shardWall), "ratio")
	m.set("mcheck.sym_reduction", float64(d7.States)/float64(first["bitar-p3-d7-sym"].res.States), "ratio")
	m.set("mcheck.por_reduction", float64(sym.res.States)/float64(first["bitar-p3-b2-d4-por"].res.States), "ratio")
	m.set("mcheck.spill_bytes_per_state", float64(spill.res.SpilledBytes)/float64(spill.res.SpilledStates), "B")
	m.set("mcheck.spill_frac", float64(spill.res.SpilledStates)/float64(spill.res.States), "ratio")
	m.set("mcheck.ram_bytes_per_state", float64(sym.ramPeak)/float64(sym.res.States), "B")
	m.set("mcheck.shard.cands_per_state", float64(shard3.shard.cands)/float64(shard3.res.States), "count")
	var maxAdded, sumAdded int64
	for _, a := range shard3.shard.added {
		maxAdded = max(maxAdded, a)
		sumAdded += a
	}
	m.set("mcheck.shard.imbalance", float64(maxAdded)*float64(len(shard3.shard.added))/float64(sumAdded), "ratio")

	// Allocations per state of one in-RAM exploration.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	r, err := runCheckOnce(checkConfigs[4], nil, 0)
	runtime.ReadMemStats(&ms)
	if err != nil {
		return err
	}
	m.set("mcheck.allocs_per_state", float64(ms.Mallocs-before)/float64(r.res.States), "count")

	m.set("mcheck.executor_us_per_step", measureExecutor(e, reps), "us")
	return nil
}

// measureExecutor times mcheck.Replayer.Apply over a fixed seeded
// action list, fast decile of reps passes, in microseconds per step.
func measureExecutor(e *env, reps int) float64 {
	p := protocol.MustNew("bitar")
	opts := mcheck.Options{Protocol: p, Procs: 3, Blocks: 2, Words: 2}
	actions := ptest.GenTrace(p, ptest.DiffOptions{Procs: 3, Blocks: 2, Words: 2, Steps: 4000, Seed: e.opts.seed})
	var ts []time.Duration
	for k := 0; k < reps; k++ {
		rp := mcheck.NewReplayer(opts)
		t0 := time.Now()
		clean := true
		for _, a := range actions {
			if _, viol, err := rp.Apply(a); err != nil || len(viol) > 0 {
				clean = false
			}
		}
		ts = append(ts, time.Since(t0))
		e.tally.expect(clean, "executor replay of %d actions reported a violation", len(actions))
	}
	return quantile(seconds(ts), 0.1) * 1e6 / float64(len(actions))
}
