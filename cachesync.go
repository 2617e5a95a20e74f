// Package cachesync is a library reproduction of Bitar & Despain,
// "Multiprocessor Cache Synchronization: Issues, Innovations,
// Evolution" (ISCA 1986): a deterministic simulator for full-broadcast
// (single-bus snooping) multiprocessor cache-synchronization schemes,
// with the paper's lock-integrated protocol as its centerpiece and
// every protocol of the paper's Table 1 evolution — Goodman's
// write-once, Frank's Synapse, Papamarcos-Patel's Illinois,
// Yen-Yen-Fu, the Berkeley scheme of Katz et al. — plus the classic
// write-through baseline and the Dragon, Firefly, and Rudolph-Segall
// write-update/hybrid schemes.
//
// The engine runs one kind of workload, the Program: a resumable
// state machine whose Next method the event loop calls inline for each
// operation. The workload generators (Layout and the internal
// workload package) produce Programs, and Machine.RunPrograms runs
// them. Hand-written scenarios can instead be ordinary Go functions
// against a blocking processor API: Machine.Run hands each one to the
// engine through a small adapter that runs it as a coroutine, resumed
// by the event loop for each operation. Either way runs are
// deterministic, so identical seeds give identical statistics.
//
//	m, _ := cachesync.New(cachesync.Config{Protocol: "bitar", Procs: 4})
//	err := m.Run([]cachesync.Workload{
//		func(p *cachesync.Proc) { p.Write(0, 42) },
//		func(p *cachesync.Proc) { p.Compute(100); _ = p.Read(0) },
//	})
package cachesync

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// Proc is the processor handle workloads run against. Inside a
// blocking Workload its methods block until the simulated operation
// completes; each is a one-liner over Do. See Read, Write, LockRead
// (the paper's lock operation), UnlockWrite, RMW, RMWMemory,
// TryWrite, WriteBlock, Compute, and IO.
type Proc = sim.Proc

// Workload is one processor's blocking program, for Machine.Run.
type Workload = func(*Proc)

// Program is the workload form the engine runs: it calls Next inline
// for each operation, with no goroutine or channel per processor (see
// sim.Program). The workload generators' Programs methods return it.
type Program = sim.Program

// Addr is a bus-wide-word address.
type Addr = addr.Addr

// Block identifies a cache block.
type Block = addr.Block

// Timing is the cycle-cost model (arbitration, address, word,
// memory, invalidate-signal, and source-arbitration cycles).
type Timing = sim.Timing

// Layout carves the address space into lock, shared, and private
// regions following the paper's block-per-atom rule.
type Layout = workload.Layout

// LockScheme selects how Acquire/Release lower onto the machine:
// the paper's cache-state lock, TAS, TTAS, or memory-held TAS.
type LockScheme = syncprim.Scheme

// Lock scheme values.
const (
	CacheLock = syncprim.CacheLock
	TAS       = syncprim.TAS
	TTAS      = syncprim.TTAS
	TASMemory = syncprim.TASMemory
)

// I/O operation kinds (Section E.2 of the paper).
const (
	IOInput   = sim.IOInput
	IOPageOut = sim.IOPageOut
	IOOutput  = sim.IOOutput
)

// Config assembles a simulated machine.
type Config struct {
	// Protocol names the cache-synchronization scheme; see Protocols.
	// Default "bitar" (the paper's proposal).
	Protocol string
	// Procs is the processor count (default 4).
	Procs int
	// BlockWords and TransferWords set the geometry (defaults 4, 4).
	// Rudolph-Segall forces one-word blocks.
	BlockWords    int
	TransferWords int
	// Sets and Ways size each cache (defaults 1 set — fully
	// associative — by 64 ways).
	Sets, Ways int
	// UnitMode enables sub-block transfer-unit cost accounting
	// (Section D.3).
	UnitMode bool
	// Timing overrides the cycle-cost model (default DefaultTiming).
	Timing *Timing
	// MaxCycles aborts runaway simulations (default ~10^12).
	MaxCycles int64
	// Buses selects single- or dual-bus broadcast (1 or 2; default 1).
	// Blocks interleave across buses (Section A.2).
	Buses int
}

// Machine is a configured simulated multiprocessor.
type Machine struct {
	sys *sim.System
}

// Protocols lists the available protocol names in historical order.
func Protocols() []string {
	out := make([]string, len(all.Everything))
	copy(out, all.Everything)
	return out
}

// DefaultTiming returns the cost model used by the benches.
func DefaultTiming() Timing { return sim.DefaultTiming() }

// New builds a Machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = "bitar"
	}
	p, err := protocol.New(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if cfg.Procs == 0 {
		cfg.Procs = 4
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("cachesync: need at least one processor, got %d", cfg.Procs)
	}
	if cfg.BlockWords == 0 {
		cfg.BlockWords = 4
	}
	if p.Features().OneWordBlocks {
		cfg.BlockWords = 1
	}
	if cfg.TransferWords == 0 {
		cfg.TransferWords = cfg.BlockWords
	}
	g, err := addr.NewGeometry(cfg.BlockWords, cfg.TransferWords)
	if err != nil {
		return nil, err
	}
	if cfg.Sets == 0 {
		cfg.Sets = 1
	}
	if cfg.Ways == 0 {
		cfg.Ways = 64
	}
	if cfg.Buses == 0 {
		cfg.Buses = 1
	}
	if cfg.Buses < 1 || cfg.Buses > 2 {
		return nil, fmt.Errorf("cachesync: Buses must be 1 or 2, got %d", cfg.Buses)
	}
	sc := sim.Config{
		Procs:     cfg.Procs,
		Protocol:  p,
		Geometry:  g,
		Cache:     cache.Config{Sets: cfg.Sets, Ways: cfg.Ways, UnitMode: cfg.UnitMode},
		Timing:    sim.DefaultTiming(),
		MaxCycles: cfg.MaxCycles,
		NumBuses:  cfg.Buses,
	}
	if cfg.Timing != nil {
		sc.Timing = *cfg.Timing
	}
	return &Machine{sys: sim.New(sc)}, nil
}

// Run executes one blocking workload per processor (nil or missing
// entries idle) and returns when all have finished, or with
// RunPrograms' errors. Each workload reaches the engine through the
// blocking adapter: a coroutine the event loop resumes for each
// operation, giving the same run as the equivalent Programs. A panic
// in a workload is raised again on the caller's goroutine; see
// sim.System.Run for runtime.Goexit.
func (m *Machine) Run(ws []Workload) error { return m.sys.Run(ws) }

// RunPrograms executes one Program per processor (nil or missing
// entries idle) and returns when all have finished, or on deadlock,
// cycle overrun, or a lock op on a protocol without the hardware lock.
// It is the engine's own path: no goroutine per processor, several
// times faster than Run.
func (m *Machine) RunPrograms(ps []Program) error { return m.sys.RunPrograms(ps) }

// Clock returns the simulated time in cycles after Run.
func (m *Machine) Clock() int64 { return m.sys.Clock() }

// Stats returns a merged snapshot of every component's counters:
// bus.<cmd> transaction counts, bus.cycles, bus.words, proc.hit.*,
// proc.miss.*, lock.*, snoop.*, mem.*, evict.*.
func (m *Machine) Stats() map[string]int64 { return m.sys.Stats().Snapshot() }

// LockStats summarizes hardware-lock acquisition latency (cycles).
func (m *Machine) LockStats() (count int, mean float64, max int64) {
	h := &m.sys.LockLatency
	return h.Count(), h.Mean(), h.Max()
}

// Layout returns the standard address-space layout for this machine's
// geometry.
func (m *Machine) Layout() Layout {
	return Layout{G: m.sys.Geometry()}
}

// ProtocolName returns the running protocol's registry name.
func (m *Machine) ProtocolName() string { return m.sys.Protocol().Name() }

// ReadWord returns the globally latest value of the word at a after
// Run: a dirty cached copy if one exists, main memory otherwise.
func (m *Machine) ReadWord(a Addr) uint64 {
	b := m.sys.Geometry().BlockOf(a)
	for _, c := range m.sys.Caches {
		if c.Protocol().IsDirty(c.State(b)) {
			if v, ok := c.ReadWord(a); ok {
				return v
			}
		}
	}
	return m.sys.Mem.ReadWord(a)
}

// BlockState renders cache c's state for the block containing a
// (for demos and debugging).
func (m *Machine) BlockState(c int, a Addr) string {
	return m.sys.Protocol().StateName(m.sys.Caches[c].State(m.sys.Geometry().BlockOf(a)))
}

// System exposes the underlying simulator for advanced use (figure
// reproduction, invariant checks).
func (m *Machine) System() *sim.System { return m.sys }

// Acquire obtains the busy-wait lock at a with the given scheme
// (Acquire(p, CacheLock, a) is the paper's LockRead).
func Acquire(p *Proc, s LockScheme, a Addr) { syncprim.Acquire(p, s, a) }

// Release frees the busy-wait lock at a.
func Release(p *Proc, s LockScheme, a Addr) { syncprim.Release(p, s, a) }

// BestScheme returns the most natural lock scheme for a protocol
// name: the cache lock when the protocol has one, TTAS otherwise.
func BestScheme(protoName string) (LockScheme, error) {
	p, err := protocol.New(protoName)
	if err != nil {
		return 0, err
	}
	return syncprim.SchemeFor(p), nil
}

// RenderStats formats a stats snapshot as an aligned table, keys
// sorted.
func RenderStats(snapshot map[string]int64) string {
	t := stats.NewTable("", "counter", "value")
	var c stats.Counters
	for k, v := range snapshot {
		c.Add(k, v)
	}
	for _, k := range c.Names() {
		t.AddRow(k, fmt.Sprintf("%d", c.Get(k)))
	}
	return t.Render()
}
