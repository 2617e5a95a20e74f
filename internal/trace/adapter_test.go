package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"cachesync"
	"cachesync/internal/addr"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/syncprim"
)

// adapterTrace is a deterministic 4-processor trace of R/E/W/A/C
// events over 24 shared blocks (four words per block at most); with
// locks, some writes also sit inside L/U pairs on two lock blocks.
func adapterTrace(g addr.Geometry, locks bool) *Trace {
	rng := rand.New(rand.NewSource(5))
	tr := &Trace{}
	for p := 0; p < 4; p++ {
		for k := 0; k < 150; k++ {
			a := g.Base(addr.Block(8+rng.Intn(24))) + addr.Addr(rng.Intn(g.BlockWords))
			switch r := rng.Intn(10); {
			case r < 4:
				tr.Events = append(tr.Events, Event{Proc: p, Kind: Read, Addr: a})
			case r == 4:
				tr.Events = append(tr.Events, Event{Proc: p, Kind: ReadEx, Addr: a})
			case r < 7:
				tr.Events = append(tr.Events, Event{Proc: p, Kind: Write, Addr: a, Value: uint64(k)})
			case r == 7:
				tr.Events = append(tr.Events, Event{Proc: p, Kind: Atomic, Addr: a})
			case r == 9 && locks:
				lock := g.Base(addr.Block(rng.Intn(2)))
				tr.Events = append(tr.Events,
					Event{Proc: p, Kind: Lock, Addr: lock},
					Event{Proc: p, Kind: Write, Addr: a, Value: uint64(k)},
					Event{Proc: p, Kind: Unlock, Addr: lock})
			default:
				tr.Events = append(tr.Events, Event{Proc: p, Kind: Compute, Cycles: int64(1 + rng.Intn(20))})
			}
		}
	}
	return tr
}

// TestWorkloadsMatchPrograms is the blocking adapter's differential:
// on every protocol, replaying one trace as blocking workloads
// (Machine.Run) and as Programs (Machine.RunPrograms) must give the
// same event log, statistics and final clock. The trace carries lock
// events on the three hardware-lock protocols.
func TestWorkloadsMatchPrograms(t *testing.T) {
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			locks := protocol.MustNew(name).Features().HardwareLock
			run := func(blocking bool) (*cachesync.Machine, []string) {
				m, err := cachesync.New(cachesync.Config{Protocol: name, Procs: 4, Ways: 16})
				if err != nil {
					t.Fatal(err)
				}
				log := m.System().AttachLog(0)
				tr := adapterTrace(m.Layout().G, locks)
				if blocking {
					err = m.Run(tr.Workloads(4))
				} else {
					err = m.RunPrograms(tr.Programs(4, syncprim.CacheLock))
				}
				if err != nil {
					t.Fatal(err)
				}
				lines := make([]string, len(log.Entries))
				for i, e := range log.Entries {
					lines[i] = e.String()
				}
				return m, lines
			}
			bm, blog := run(true)
			pm, plog := run(false)
			if len(blog) == 0 {
				t.Fatal("replay issued no bus transactions")
			}
			if !reflect.DeepEqual(blog, plog) {
				t.Errorf("event logs differ: %d entries blocking, %d as Programs", len(blog), len(plog))
			}
			if bs, ps := bm.Stats(), pm.Stats(); !reflect.DeepEqual(bs, ps) {
				t.Errorf("stats differ:\n  blocking: %v\n  programs: %v", bs, ps)
			}
			if bm.Clock() != pm.Clock() {
				t.Errorf("final clock: blocking %d, programs %d", bm.Clock(), pm.Clock())
			}
			if locks && bm.Stats()["lock.acquired"] == 0 {
				t.Error("lock events acquired no hardware lock")
			}
		})
	}
}
