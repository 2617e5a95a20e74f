// Package aquarius models Figure 11's two-tier Aquarius memory
// architecture: an upper switch-memory system — a single bus running
// the full-broadcast synchronization protocol, holding all hard atoms
// and program synchronization data — and a lower system — a crossbar
// to interleaved memory banks for instructions and non-synchronization
// data, which "will not need to serialize accesses to a block, but
// will only need to provide the latest version of each block"
// (Section G.1).
//
// The upper tier is a full sim.System. The lower tier is built from
// internal/interconnect cost models: a contention-costed crossbar,
// optionally placed a network hop away behind a RemoteLink (the
// Soul/GCS disaggregated-memory configuration, PAPERS.md
// arXiv:2301.02576). The machine always attaches itself as the sim
// engine's lower tier: a processor's instruction fetches
// (sim.Proc.InstrFetch) and Data-class references (ReadClass and
// WriteClass with interconnect.Data) go to the lower tier, and the
// rest stay on the synchronization bus. With Routed set, an
// unclassified reference is rejected instead.
//
// Lower-tier values are applied in the engine's deterministic event
// order at issue time — the "latest version of each block" delivery
// of Section G.1, with bank occupancy as the only contention.
package aquarius

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/core"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
)

// Config sizes the two-tier system.
type Config struct {
	Procs int
	// Upper (synchronization) tier.
	Sync sim.Config
	// Lower (crossbar) tier.
	Banks       int
	BankCycles  int // bank service time per access
	WireCycles  int // crossbar traversal
	IBufEntries int // per-processor instruction-buffer entries (read-only stream)
	// RemoteCycles, when positive, places the whole lower tier a
	// network hop away: one-way propagation latency in cycles.
	RemoteCycles int
	// RemoteOccupancy is the per-message channel occupancy of the
	// remote link (per direction); used only with RemoteCycles > 0.
	RemoteOccupancy int
	// Routed makes classification mandatory: unclassified references
	// are rejected instead of staying on the synchronization bus, so
	// every reference of a routed workload goes where its class says.
	// Instr/Data-class references reach the lower tier either way.
	Routed bool
}

// DefaultConfig returns a machine shaped like Figure 11: PPs on a
// synchronization bus plus a crossbar over interleaved banks.
func DefaultConfig(procs int) Config {
	sc := sim.DefaultConfig(core.Protocol{})
	sc.Procs = procs
	return Config{
		Procs:           procs,
		Sync:            sc,
		Banks:           8,
		BankCycles:      4,
		WireCycles:      1,
		IBufEntries:     16,
		RemoteOccupancy: 2,
	}
}

// ibuf is a per-processor FIFO instruction buffer. Eviction order is
// insertion order — a deterministic function of the fetch stream, so
// repeated runs produce byte-identical hit/miss/crossbar counters.
type ibuf struct {
	present map[addr.Addr]struct{}
	order   []addr.Addr
	head    int
	n       int
}

func newIbuf(entries int) *ibuf {
	if entries <= 0 {
		entries = 1
	}
	return &ibuf{
		present: make(map[addr.Addr]struct{}, entries),
		order:   make([]addr.Addr, entries),
	}
}

func (b *ibuf) has(a addr.Addr) bool {
	_, ok := b.present[a]
	return ok
}

// insert adds a missing address, evicting the oldest entry when full.
func (b *ibuf) insert(a addr.Addr) {
	if b.n == len(b.order) {
		old := b.order[b.head]
		delete(b.present, old)
		b.order[b.head] = a
		b.head = (b.head + 1) % len(b.order)
	} else {
		b.order[(b.head+b.n)%len(b.order)] = a
		b.n++
	}
	b.present[a] = struct{}{}
}

// System is the two-tier Aquarius machine.
type System struct {
	cfg Config
	// Sync is the upper tier: the broadcast bus with the paper's
	// protocol, where all hard atoms live.
	Sync *sim.System

	xbar *interconnect.Crossbar
	data interconnect.Interconnect // xbar, or the remote link in front of it
	ibuf []*ibuf
	mem  map[addr.Addr]uint64 // lower-tier storage

	Counts    stats.Counters
	ibufHitH  *int64
	ibufMissH *int64
}

// New builds the two-tier system.
func New(cfg Config) *System {
	if cfg.Banks <= 0 {
		panic("aquarius: need at least one bank")
	}
	s := &System{
		cfg:  cfg,
		Sync: sim.New(cfg.Sync),
		ibuf: make([]*ibuf, cfg.Procs),
		mem:  make(map[addr.Addr]uint64),
	}
	s.xbar = interconnect.NewCrossbar(cfg.Banks, cfg.BankCycles, cfg.WireCycles, &s.Counts)
	s.data = s.xbar
	if cfg.RemoteCycles > 0 {
		s.data = interconnect.NewRemoteLink(s.xbar, int64(cfg.RemoteCycles), int64(cfg.RemoteOccupancy), &s.Counts)
	}
	for i := range s.ibuf {
		s.ibuf[i] = newIbuf(cfg.IBufEntries)
	}
	// The lower tier is always attached so every fabric access runs
	// inside the engine's single-threaded event loop (blocking workload
	// goroutines run between their blocking calls — touching
	// crossbar/ibuf state from them would race). Routed additionally
	// makes classification mandatory: unclassified references are
	// rejected instead of staying on the synchronization bus.
	s.Sync.AttachLower(s, cfg.Routed)
	return s
}

// Run executes blocking workloads on the synchronization tier's
// processors, through the engine's blocking adapter (sim.System.Run).
// Instr/Data-class references (sim.Proc.InstrFetch, ReadClass,
// WriteClass) go to the lower tier.
func (s *System) Run(ws []func(*sim.Proc)) error { return s.Sync.Run(ws) }

// RunPrograms executes one Program per processor.
func (s *System) RunPrograms(progs []sim.Program) error { return s.Sync.RunPrograms(progs) }

// LowerAccess implements sim.LowerTier: the engine hands over every
// Instr/Data-class reference in deterministic event order.
func (s *System) LowerAccess(ref sim.LowerRef) (int64, uint64, error) {
	if ref.Class == interconnect.Instr {
		b := s.ibuf[ref.Proc]
		if b.has(ref.Addr) {
			bump(&s.Counts, &s.ibufHitH, "ibuf.hit")
			return ref.Now + 1, s.mem[ref.Addr], nil
		}
		bump(&s.Counts, &s.ibufMissH, "ibuf.miss")
		done := s.data.Access(ref.Proc, ref.Addr, ref.Now)
		b.insert(ref.Addr)
		return done, s.mem[ref.Addr], nil
	}
	done := s.data.Access(ref.Proc, ref.Addr, ref.Now)
	switch ref.Op {
	case protocol.OpRead, protocol.OpReadEx:
		return done, s.mem[ref.Addr], nil
	case protocol.OpWrite:
		s.mem[ref.Addr] = ref.Value
		return done, 0, nil
	case protocol.OpWriteBlock:
		for i, v := range ref.Vals {
			s.mem[ref.Addr+addr.Addr(i)] = v
		}
		return done, 0, nil
	}
	return 0, 0, fmt.Errorf("aquarius: unsupported lower-tier op %v", ref.Op)
}

func bump(c *stats.Counters, h **int64, name string) {
	if *h == nil {
		*h = c.Handle(name)
	}
	**h++
}

// BankLoads reports per-bank access counts (to observe interleaving).
func (s *System) BankLoads() []int64 {
	out := make([]int64, s.cfg.Banks)
	for i := range out {
		out[i] = s.Counts.Get(fmt.Sprintf("xbar.bank%d", i))
	}
	return out
}

// Clock returns the machine's global time: the synchronization tier's
// high-water mark, which covers lower-tier completion times because
// every routed reference completes its processor's operation there.
func (s *System) Clock() int64 { return s.Sync.Clock() }

// BroadcastFraction reports how many routed references needed the
// full-broadcast synchronization tier versus the total routed — the
// paper's Section G claim quantified. Meaningful on Routed machines.
func (s *System) BroadcastFraction() (syncRefs, totalRefs int64) {
	syncRefs = s.Sync.Counts.Get("route.sync")
	totalRefs = syncRefs + s.Sync.Counts.Get("route.instr") + s.Sync.Counts.Get("route.data")
	return syncRefs, totalRefs
}

// Stats merges the synchronization tier's counters with the lower
// tier's (crossbar, instruction buffers, remote link).
func (s *System) Stats() *stats.Counters {
	out := s.Sync.Stats()
	out.Merge(&s.Counts)
	return out
}
