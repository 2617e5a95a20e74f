// Package simrun is the shared "one configured simulation" layer:
// cmd/cachesim and the cachesyncd daemon both build a sim.System from
// the same Config, run the same workloads, apply the same online
// coherence checking, and render the same report — so a daemon
// response is byte-identical to what the CLI prints for the same
// configuration.
package simrun

import (
	"context"
	"fmt"
	"os"
	"strings"

	"cachesync"
	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/mcheck"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/trace"
	"cachesync/internal/workload"

	"cachesync/internal/protocol"
)

// Config captures one simulation's parameters. The JSON form is the
// daemon's /v1/simulate request body; zero values mean the CLI's
// defaults (see Normalize), so a minimal request like
// {"protocol":"bitar"} is complete.
type Config struct {
	Protocol string `json:"protocol"`
	// Inject names a seeded protocol bug (mcheck.MutantNames); with
	// Check on, the run is expected to fail.
	Inject     string `json:"inject,omitempty"`
	Procs      int    `json:"procs,omitempty"`
	Ways       int    `json:"ways,omitempty"`
	BlockWords int    `json:"block,omitempty"`
	UnitWords  int    `json:"unit,omitempty"`
	UnitMode   bool   `json:"unitmode,omitempty"`
	Buses      int    `json:"buses,omitempty"`
	// Tiers selects the machine: 1 (default) is the classic one-bus
	// system; 2 is the routed two-tier Aquarius machine (sync bus +
	// crossbar over interleaved banks).
	Tiers int `json:"tiers,omitempty"`
	// RemoteCycles, with Tiers 2, places the lower tier a network hop
	// away: one-way latency in cycles (the disaggregated configuration).
	RemoteCycles int    `json:"remote,omitempty"`
	Workload     string `json:"workload,omitempty"`
	Ops          int    `json:"ops,omitempty"`
	Iters        int    `json:"iters,omitempty"`
	Hold         int64  `json:"hold,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	TraceFile    string `json:"trace,omitempty"`
	Scheme       string `json:"scheme,omitempty"`
	LogN         int    `json:"log,omitempty"`
	// NoCheck disables the online coherence checker (the CLI's -check
	// flag, inverted so the JSON zero value keeps checking on).
	NoCheck bool `json:"nocheck,omitempty"`
}

// Normalize fills defaulted fields in place and returns the config,
// mirroring cmd/cachesim's flag defaults.
func (c Config) Normalize() Config {
	if c.Protocol == "" {
		c.Protocol = "bitar"
	}
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Ways == 0 {
		c.Ways = 64
	}
	if c.BlockWords == 0 {
		c.BlockWords = 4
	}
	if c.Buses == 0 {
		c.Buses = 1
	}
	if c.Tiers == 0 {
		c.Tiers = 1
	}
	if c.Workload == "" {
		c.Workload = "mixed"
	}
	if c.Ops == 0 {
		c.Ops = 500
	}
	if c.Iters == 0 {
		c.Iters = 25
	}
	if c.Hold == 0 {
		c.Hold = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Hash summarizes every parameter the output depends on — the runner
// ConfigHash for caching and the daemon's single-flight key. Callers
// should hash the normalized config so equivalent requests collide.
func (c Config) Hash() string {
	return fmt.Sprintf("%s inject=%s p=%d w=%d b=%d u=%d um=%v buses=%d tiers=%d remote=%d %s ops=%d it=%d hold=%d seed=%d trace=%s scheme=%s log=%d check=%v",
		c.Protocol, c.Inject, c.Procs, c.Ways, c.BlockWords, c.UnitWords, c.UnitMode, c.Buses, c.Tiers, c.RemoteCycles,
		c.Workload, c.Ops, c.Iters, c.Hold, c.Seed, c.TraceFile, c.Scheme, c.LogN, !c.NoCheck)
}

// Validate rejects configurations the engine would panic on or that a
// network caller must not request, before any work happens.
func (c Config) Validate() error {
	if _, err := protocol.New(c.Protocol); err != nil {
		return err
	}
	if c.Inject != "" {
		p := protocol.MustNew(c.Protocol)
		if _, err := mcheck.Mutate(p, c.Inject); err != nil {
			return err
		}
	}
	if c.Procs < 1 || c.Procs > 64 {
		return fmt.Errorf("simrun: procs %d out of range [1,64]", c.Procs)
	}
	if c.Ways < 1 || c.Ways > 4096 {
		return fmt.Errorf("simrun: ways %d out of range [1,4096]", c.Ways)
	}
	if !powerOfTwo(c.BlockWords) || c.BlockWords > 64 {
		return fmt.Errorf("simrun: block %d words is not a power of two in [1,64]", c.BlockWords)
	}
	if c.UnitWords != 0 && (!powerOfTwo(c.UnitWords) || c.UnitWords > 64) {
		return fmt.Errorf("simrun: unit %d words is neither 0 nor a power of two in [1,64]", c.UnitWords)
	}
	if c.Buses < 1 || c.Buses > 2 {
		return fmt.Errorf("simrun: buses must be 1 or 2, got %d", c.Buses)
	}
	if c.Tiers < 1 || c.Tiers > 2 {
		return fmt.Errorf("simrun: tiers must be 1 or 2, got %d", c.Tiers)
	}
	if c.RemoteCycles < 0 || c.RemoteCycles > 1_000_000 {
		return fmt.Errorf("simrun: remote cycles %d out of range [0,1000000]", c.RemoteCycles)
	}
	if c.RemoteCycles > 0 && c.Tiers != 2 {
		return fmt.Errorf("simrun: remote cycles need tiers=2")
	}
	switch c.Workload {
	case "mixed", "lock", "pc", "queues", "statesave", "lockdata":
	case "trace":
		if c.TraceFile == "" {
			return fmt.Errorf("simrun: workload trace needs a trace file")
		}
	default:
		return fmt.Errorf("simrun: unknown workload %q", c.Workload)
	}
	if c.Ops < 0 || c.Ops > 5_000_000 {
		return fmt.Errorf("simrun: ops %d out of range [0,5000000]", c.Ops)
	}
	if c.Iters < 0 || c.Iters > 1_000_000 {
		return fmt.Errorf("simrun: iters %d out of range", c.Iters)
	}
	if c.Hold < 0 || c.Hold > 1_000_000 {
		return fmt.Errorf("simrun: hold %d out of range [0,1000000]", c.Hold)
	}
	if c.LogN < 0 || c.LogN > 10_000 {
		return fmt.Errorf("simrun: log %d out of range [0,10000]", c.LogN)
	}
	if _, ok := parseScheme(c.Scheme); c.Scheme != "" && !ok {
		return fmt.Errorf("simrun: unknown scheme %q", c.Scheme)
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// parseScheme returns the locking scheme named name.
func parseScheme(name string) (syncprim.Scheme, bool) {
	for s := syncprim.CacheLock; s <= syncprim.TASMemory; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Result is one completed simulation.
type Result struct {
	// Output is the full rendered report — byte-identical to what
	// cmd/cachesim prints for this config.
	Output string
	// Pass is false when the coherence checker found violations.
	Pass bool
	// Cycles is the finishing simulated time.
	Cycles int64
}

// Hooks are optional observation points for a run.
type Hooks struct {
	// BusTxn receives each logged bus-transaction line as it completes
	// (requires Config.LogN > 0; the daemon streams these to job
	// watchers as NDJSON events).
	BusTxn func(line string)
}

// buildSimConfig assembles the synchronization-tier sim.Config for cfg
// (normalized), wrapping the protocol with an injected bug when
// requested — which is why this does not go through the cachesync
// facade: mutants are not registered names.
func buildSimConfig(cfg Config) (sim.Config, error) {
	p, err := protocol.New(cfg.Protocol)
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Inject != "" {
		if p, err = mcheck.Mutate(p, cfg.Inject); err != nil {
			return sim.Config{}, err
		}
	}
	bw := cfg.BlockWords
	if bw == 0 {
		bw = 4
	}
	if p.Features().OneWordBlocks {
		bw = 1
	}
	unit := cfg.UnitWords
	if unit == 0 || unit > bw {
		unit = bw
	}
	g, err := addr.NewGeometry(bw, unit)
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Buses < 1 || cfg.Buses > 2 {
		return sim.Config{}, fmt.Errorf("simrun: buses must be 1 or 2, got %d", cfg.Buses)
	}
	return sim.Config{
		Procs:    cfg.Procs,
		Protocol: p,
		Geometry: g,
		Cache:    cache.Config{Sets: 1, Ways: cfg.Ways, UnitMode: cfg.UnitMode},
		Timing:   sim.DefaultTiming(),
		NumBuses: cfg.Buses,
	}, nil
}

// BuildMachine assembles the machine cfg asks for: always the
// synchronization-tier sim.System, plus — with Tiers 2 — the routed
// two-tier Aquarius system wrapped around it.
func BuildMachine(cfg Config) (*sim.System, *aquarius.System, error) {
	sc, err := buildSimConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Tiers < 2 {
		return sim.New(sc), nil, nil
	}
	ac := aquarius.DefaultConfig(cfg.Procs)
	ac.Sync = sc
	ac.RemoteCycles = cfg.RemoteCycles
	ac.Routed = true
	aq := aquarius.New(ac)
	return aq.Sync, aq, nil
}

// buildPrograms constructs the workload's Programs, one per processor.
// Trace replay uses the run's locking scheme for lock events.
func buildPrograms(cfg Config, l workload.Layout, scheme syncprim.Scheme) ([]sim.Program, error) {
	switch cfg.Workload {
	case "mixed":
		return workload.Mixed{Ops: cfg.Ops, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: cfg.Seed}.Programs(l, cfg.Procs), nil
	case "lock":
		return workload.LockContention{Locks: 1, Iters: cfg.Iters, HoldCycles: cfg.Hold,
			ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs), nil
	case "pc":
		return workload.ProducerConsumer{Items: cfg.Iters, WritesPerItem: 4, Scheme: scheme}.Programs(l, cfg.Procs), nil
	case "queues":
		return workload.ServiceQueues{Requests: cfg.Iters, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs), nil
	case "statesave":
		return workload.StateSave{Switches: cfg.Iters, StateBlocks: 4}.Programs(l, cfg.Procs), nil
	case "lockdata":
		return workload.LockedData{Locks: 1, Iters: cfg.Iters, Records: 6, Instrs: 4,
			Think: cfg.Hold, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs), nil
	case "trace":
		f, err := os.Open(cfg.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.Decode(f)
		if err != nil {
			return nil, err
		}
		return tr.Programs(cfg.Procs, scheme), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

// Run executes one configured simulation and renders its report.
func Run(ctx context.Context, cfg Config) (Result, error) {
	return RunWithHooks(ctx, cfg, Hooks{})
}

// RunWithHooks is Run with observation points. Cancellation of ctx
// aborts the simulation mid-run (sim.System.RunProgramsContext) and
// returns the context's error.
func RunWithHooks(ctx context.Context, cfg Config, h Hooks) (Result, error) {
	sys, aq, err := BuildMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	scheme, serr := cachesync.BestScheme(cfg.Protocol)
	if s, ok := parseScheme(cfg.Scheme); serr == nil && ok {
		scheme = s
	}
	progs, err := buildPrograms(cfg, workload.Layout{G: sys.Geometry()}, scheme)
	if err != nil {
		return Result{}, err
	}

	var evlog *sim.EventLog
	if cfg.LogN > 0 {
		evlog = sys.AttachLog(cfg.LogN)
	}
	check := !cfg.NoCheck
	var violations []string
	seen := map[string]bool{}
	streamed := 0
	if check || (evlog != nil && h.BusTxn != nil) {
		var online *coherence.Online
		if check {
			online = coherence.NewOnline(sys)
		}
		sys.OnTxn = func() {
			if check {
				for _, v := range online.Check() {
					if !seen[v] {
						seen[v] = true
						violations = append(violations, fmt.Sprintf("cycle %d: %s", sys.Clock(), v))
					}
				}
			}
			if evlog != nil && h.BusTxn != nil {
				for ; streamed < len(evlog.Entries); streamed++ {
					h.BusTxn(evlog.Entries[streamed].String())
				}
			}
		}
	}
	if err := sys.RunProgramsContext(ctx, progs); err != nil {
		return Result{}, err
	}
	if check {
		// The checker runs between transactions, so transient in-flight
		// states are quiesced; any report is a real incoherence.
		violations = appendFinalCheck(sys, violations)
	}

	var b strings.Builder
	if evlog != nil {
		_ = evlog.Dump(&b)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "protocol=%s procs=%d workload=%s scheme=%v\n", sys.Protocol().Name(), cfg.Procs, cfg.Workload, scheme)
	if aq != nil {
		fmt.Fprintf(&b, "tiers=2 remote=%d\n", cfg.RemoteCycles)
	}
	fmt.Fprintf(&b, "finished at cycle %d\n\n", sys.Clock())
	hist := &sys.LockLatency
	if hist.Count() > 0 {
		fmt.Fprintf(&b, "hardware lock acquisitions: %d (mean %.1f cycles, max %d)\n\n", hist.Count(), hist.Mean(), hist.Max())
	}
	if aq != nil {
		if syncRefs, total := aq.BroadcastFraction(); total > 0 {
			fmt.Fprintf(&b, "broadcast fraction: %d/%d references (%.1f%%) needed the synchronization bus\n\n",
				syncRefs, total, 100*float64(syncRefs)/float64(total))
		}
	}
	if aq != nil {
		b.WriteString(cachesync.RenderStats(aq.Stats().Snapshot()))
	} else {
		b.WriteString(cachesync.RenderStats(sys.Stats().Snapshot()))
	}
	b.WriteString("\n")
	res := Result{Cycles: sys.Clock()}
	if len(violations) > 0 {
		fmt.Fprintf(&b, "coherence checker: %d violation(s):\n", len(violations))
		for _, v := range violations {
			b.WriteString("  " + v + "\n")
		}
		res.Output = b.String()
		return res, nil
	}
	if check {
		b.WriteString("coherence checker: clean (every bus transaction and the final state)\n")
	}
	res.Output = b.String()
	res.Pass = true
	return res, nil
}

// appendFinalCheck re-validates the quiesced final state (a run whose
// last operation is a pure cache hit fires no OnTxn afterwards).
func appendFinalCheck(sys *sim.System, violations []string) []string {
	for _, v := range coherence.Check(sys) {
		entry := fmt.Sprintf("final state: %s", v)
		dup := false
		for _, have := range violations {
			if have == entry {
				dup = true
				break
			}
		}
		if !dup {
			violations = append(violations, entry)
		}
	}
	return violations
}
