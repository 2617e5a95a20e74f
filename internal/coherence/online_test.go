package coherence_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/core"
	"cachesync/internal/mcheck"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// onlineShape is one machine the online checker is held against the
// full sweep on: small caches so evictions and lock purges happen.
type onlineShape struct {
	name     string
	ways     int
	buses    int
	unitMode bool
}

var onlineShapes = []onlineShape{
	{"ways2-unit", 2, 1, true},
	{"ways3-buses2", 3, 2, false},
	{"ways4", 4, 1, false},
}

// onlineWorkloads names the six simrun workloads, each at a few
// operations per processor.
var onlineWorkloads = []string{"mixed", "lock", "pc", "queues", "statesave", "lockdata"}

func onlinePrograms(name string, l workload.Layout, procs int, scheme syncprim.Scheme) []sim.Program {
	switch name {
	case "mixed":
		return workload.Mixed{Ops: 60, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}.Programs(l, procs)
	case "lock":
		return workload.LockContention{Locks: 1, Iters: 3, HoldCycles: 20, ThinkCycles: 10,
			CSWrites: 2, Scheme: scheme, Seed: 1}.Programs(l, procs)
	case "pc":
		return workload.ProducerConsumer{Items: 3, WritesPerItem: 4, Scheme: scheme}.Programs(l, procs)
	case "queues":
		return workload.ServiceQueues{Requests: 3, Scheme: scheme, Seed: 1}.Programs(l, procs)
	case "statesave":
		return workload.StateSave{Switches: 3, StateBlocks: 4}.Programs(l, procs)
	default:
		return workload.LockedData{Locks: 1, Iters: 3, Records: 6, Instrs: 4, Think: 20,
			Scheme: scheme, Seed: 1}.Programs(l, procs)
	}
}

// TestOnlineCheckerMatchesFullSweep runs the online checker and the
// full sweep side by side after every bus transaction — every
// protocol, clean and with each seeded bug it accepts, on the six
// simrun workloads over small, dual-bus and unit-mode machines. After
// deduplication through a seen-set each, as simrun reports them, the
// two must yield the same new violations at every transaction. The
// same hook snapshots what the invariants read of every block held
// before or after the transaction, and fails when a block whose
// snapshot changed is missing from the journal.
func TestOnlineCheckerMatchesFullSweep(t *testing.T) {
	const procs = 4
	for _, name := range all.Everything {
		base := protocol.MustNew(name)
		variants := []string{""}
		for _, m := range mcheck.MutantNames() {
			if _, err := mcheck.Mutate(base, m); err == nil {
				variants = append(variants, m)
			}
		}
		for _, inject := range variants {
			p := base
			label := name
			if inject != "" {
				p, _ = mcheck.Mutate(base, inject)
				label += "+" + inject
			}
			t.Run(label, func(t *testing.T) {
				for _, sh := range onlineShapes {
					bw, unit := 4, 4
					if sh.unitMode {
						unit = 1
					}
					if base.Features().OneWordBlocks {
						bw, unit = 1, 1
					}
					cfg := sim.Config{
						Procs:     procs,
						Protocol:  p,
						Geometry:  addr.MustGeometry(bw, unit),
						Cache:     cache.Config{Sets: 1, Ways: sh.ways, UnitMode: sh.unitMode},
						Timing:    sim.DefaultTiming(),
						NumBuses:  sh.buses,
						MaxCycles: 30_000, // seeded bugs livelock the spin-waits
					}
					l := workload.Layout{G: cfg.Geometry}
					for _, wl := range onlineWorkloads {
						s := sim.New(cfg)
						where := fmt.Sprintf("%s/%s", sh.name, wl)
						n := compareOnline(t, s, where)
						progs := onlinePrograms(wl, l, procs, syncprim.SchemeFor(base))
						if err := s.RunPrograms(progs); err != nil && inject == "" {
							t.Errorf("%s: %v", where, err)
						}
						if *n == 0 {
							t.Errorf("%s: no bus transaction was checked", where)
						}
					}
				}
			})
		}
	}
}

// compareOnline attaches an online checker and a full sweep to s and
// returns the count of transactions checked so far. It reports only
// the first disagreement of a run.
func compareOnline(t *testing.T, s *sim.System, where string) *int {
	t.Helper()
	online := coherence.NewOnline(s)
	seenOnline, seenFull := map[string]bool{}, map[string]bool{}
	prev := map[addr.Block]string{}
	txns, failed := 0, false
	fail := func(format string, args ...any) {
		if !failed {
			failed = true
			t.Errorf("%s, transaction %d (cycle %d): %s", where, txns, s.Clock(), fmt.Sprintf(format, args...))
		}
	}
	s.OnTxn = func() {
		txns++
		pending := online.Pending()
		held := coherence.HeldBlocks(s.Caches)
		cur := make(map[addr.Block]string, len(held))
		for _, b := range held {
			cur[b] = blockView(s, b)
		}
		for _, b := range held {
			if prev[b] != cur[b] {
				if _, ok := slices.BinarySearch(pending, b); !ok {
					fail("block %d changed but was not journaled: %q -> %q", b, prev[b], cur[b])
				}
			}
		}
		for b, was := range prev {
			if _, ok := cur[b]; !ok {
				if _, ok := slices.BinarySearch(pending, b); !ok {
					fail("block %d stopped being held but was not journaled: %q -> %q", b, was, blockView(s, b))
				}
			}
		}
		prev = cur
		gotOnline := fresh(online.Check(), seenOnline)
		gotFull := fresh(coherence.Check(s), seenFull)
		if !slices.Equal(gotOnline, gotFull) {
			fail("online checker reported %q, full sweep %q", gotOnline, gotFull)
		}
	}
	return &txns
}

// fresh returns the violations not yet in seen, in order, and adds
// them to seen.
func fresh(vs []string, seen map[string]bool) []string {
	var out []string
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// blockView renders everything the invariants read of block b: each
// valid holder's ID, state and data, the memory words and the lock
// tag's owner.
func blockView(s *sim.System, b addr.Block) string {
	var sb strings.Builder
	for _, c := range s.Caches {
		if st, data, ok := c.FrameView(b); ok && st != protocol.Invalid {
			fmt.Fprintf(&sb, "cache%d=%d%v ", c.ID(), st, data)
		}
	}
	tag := s.Mem.GetLockTag(b)
	fmt.Fprintf(&sb, "mem=%v lock=%v/%d", s.Mem.BlockView(b), tag.Locked, tag.Owner)
	return sb.String()
}

// TestJournalRecordsEveryWrite drives each journaled write of the
// cache and memory directly and checks that the written block reaches
// the online checker. Some of these writes always share a transaction
// with another journaled write of the same block on the engine's
// paths (memory writes, SetState, Restore), so the full-sweep
// comparison alone would not notice their record going missing.
func TestJournalRecordsEveryWrite(t *testing.T) {
	const b = addr.Block(3)
	cases := []struct {
		name  string
		setup func(s *sim.System) // before the journal is drained
		write func(s *sim.System)
		want  []addr.Block
	}{
		{"Install", nil, func(s *sim.System) { s.Caches[0].Install(b, nil, core.RSC) }, nil},
		{"SetState", installed(core.RSC), func(s *sim.System) { s.Caches[0].SetState(b, core.WSC) }, nil},
		{"Drop", installed(core.RSC), func(s *sim.System) { s.Caches[0].Drop(b) }, nil},
		{"WriteWord", installed(core.WSD), func(s *sim.System) { s.Caches[0].WriteWord(base(s)+1, 9) }, nil},
		{"Probe/state", installed(core.WSC), func(s *sim.System) { s.Caches[0].Probe(protocol.OpWrite, base(s)) }, nil},
		{"ProbeWord/store", installed(core.WSD), func(s *sim.System) { s.Caches[0].ProbeWord(protocol.OpWrite, base(s), 9) }, nil},
		{"Snoop", installed(core.RSC), func(s *sim.System) {
			s.Caches[0].Snoop(&bus.Transaction{Cmd: bus.ReadX, Block: b, Addr: base(s), Requester: 1})
		}, nil},
		{"Restore", installed(core.RSC), func(s *sim.System) {
			s.Caches[0].Restore([]cache.LineSnapshot{{Block: b + 1, State: core.WSD, Data: []uint64{1, 2, 3, 4}}})
		}, []addr.Block{b, b + 1}},
		{"Memory.WriteBlock", nil, func(s *sim.System) { s.Mem.WriteBlock(b, []uint64{1, 2, 3, 4}) }, nil},
		{"Memory.WriteWord", nil, func(s *sim.System) { s.Mem.WriteWord(base(s)+2, 9) }, nil},
		{"Memory.SetLockTag", nil, func(s *sim.System) { s.Mem.SetLockTag(b, memory.LockTag{Locked: true, Owner: 1}) }, nil},
	}
	for _, tc := range cases {
		s := sim.New(sim.DefaultConfig(core.Protocol{}))
		online := coherence.NewOnline(s)
		if tc.setup != nil {
			tc.setup(s)
		}
		online.Check()
		tc.write(s)
		want := tc.want
		if want == nil {
			want = []addr.Block{b}
		}
		if got := online.Pending(); !slices.Equal(got, want) {
			t.Errorf("%s: journal holds %v, want %v", tc.name, got, want)
		}
	}
}

// installed returns a setup step that installs the test block in
// cache 0 in state st.
func installed(st protocol.State) func(s *sim.System) {
	return func(s *sim.System) { s.Caches[0].Install(3, []uint64{1, 2, 3, 4}, st) }
}

func base(s *sim.System) addr.Addr { return s.Geometry().Base(3) }
