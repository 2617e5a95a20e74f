package protocol_test

import (
	"testing"

	"cachesync/internal/bus"
	"cachesync/internal/core"
	"cachesync/internal/protocol"
)

// defective wraps bitar with injected defects. Compile accepts any
// Protocol, so it compiles the wrapper (TableFor would refuse it as a
// non-registered type). A nil hook passes the call through.
//
// bitar's states are I=0, R=1, RSC=2, RSD=3, WSC=4, WSD=5, LSD=6 and
// LSDW=7. Compile's breadth-first pass dequeues I, then the lock-purge
// reclaim states LSD and LSDW, and only later R, which is entered by
// snooping; so a defect in LSD is met before one in R.
type defective struct {
	protocol.Protocol
	proc     func(s protocol.State, op protocol.Op, r protocol.ProcResult) protocol.ProcResult
	complete func(s protocol.State, op protocol.Op, t *bus.Transaction, r protocol.CompleteResult) protocol.CompleteResult
	snoop    func(s protocol.State, t *bus.Transaction, r protocol.SnoopResult) protocol.SnoopResult
	evict    func(s protocol.State)
}

func (d defective) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	r := d.Protocol.ProcAccess(s, op)
	if d.proc != nil {
		r = d.proc(s, op, r)
	}
	return r
}

func (d defective) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	r := d.Protocol.Complete(s, op, t)
	if d.complete != nil {
		r = d.complete(s, op, t, r)
	}
	return r
}

func (d defective) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	r := d.Protocol.Snoop(s, t)
	if d.snoop != nil {
		r = d.snoop(s, t, r)
	}
	return r
}

func (d defective) Evict(s protocol.State) protocol.Evict {
	if d.evict != nil {
		d.evict(s)
	}
	return d.Protocol.Evict(s)
}

// ReclaimedLockState keeps bitar's reclaim seeds, which the embedded
// interface value would otherwise hide from Compile.
func (d defective) ReclaimedLockState(waiter bool) protocol.State {
	return d.Protocol.(protocol.LockReclaimer).ReclaimedLockState(waiter)
}

// requesterDependent flips Done when t.Requester is set, on the one
// cell (state s, read, Read, no flags): a field outside the key.
func requesterDependent(s protocol.State) func(protocol.State, protocol.Op, *bus.Transaction, protocol.CompleteResult) protocol.CompleteResult {
	return func(st protocol.State, op protocol.Op, t *bus.Transaction, r protocol.CompleteResult) protocol.CompleteResult {
		if st == s && op == protocol.OpRead && t.Cmd == bus.Read && t.Requester != 0 {
			r.Done = !r.Done
		}
		return r
	}
}

// blockDependent flips Hit when t.Block is set, on Snoop(s, ReadX).
func blockDependent(s protocol.State) func(protocol.State, *bus.Transaction, protocol.SnoopResult) protocol.SnoopResult {
	return func(st protocol.State, t *bus.Transaction, r protocol.SnoopResult) protocol.SnoopResult {
		if st == s && t.Cmd == bus.ReadX && t.Block != 0 {
			r.Hit = !r.Hit
		}
		return r
	}
}

// evictPanics panics in Evict on state s.
func evictPanics(s protocol.State) func(protocol.State) {
	return func(st protocol.State) {
		if st == s {
			panic("evict defect")
		}
	}
}

// TestCompileRefusals pins every reason Compile refuses a protocol,
// each with its exact error text, and which error it reports when
// several states are defective: the bound error first, then the lowest
// failing state's first error in the order per-state hooks, ProcAccess
// and Complete per op, Snoop.
func TestCompileRefusals(t *testing.T) {
	bitar := protocol.MustNew("bitar")
	cases := []struct {
		name string
		p    protocol.Protocol
		want string
	}{
		{
			name: "complete reads Requester",
			p:    defective{Protocol: bitar, complete: requesterDependent(core.WSC)},
			want: "protocol bitar: Complete(4, read, read/flags=0x0) depends on a transaction field outside the table key",
		},
		{
			name: "complete panics only on the noisy transaction",
			p: defective{Protocol: bitar, complete: func(s protocol.State, op protocol.Op, t *bus.Transaction, r protocol.CompleteResult) protocol.CompleteResult {
				if s == core.RSD && op == protocol.OpWrite && t.Cmd == bus.Upgrade && t.Lines.Dirty && t.BlockData != nil {
					panic("noisy defect")
				}
				return r
			}},
			want: "protocol bitar: Complete(3, write, upgrade/flags=0x4) depends on a transaction field outside the table key",
		},
		{
			name: "snoop reads Block",
			p:    defective{Protocol: bitar, snoop: blockDependent(core.RSC)},
			want: "protocol bitar: Snoop(2, readx) depends on a transaction field outside the table key",
		},
		{
			name: "evict panics on a reachable state",
			p:    defective{Protocol: bitar, evict: evictPanics(core.WSD)},
			want: "protocol bitar: per-state hook panicked on reachable state 5: evict defect",
		},
		{
			name: "procaccess panics on a reachable state",
			p: defective{Protocol: bitar, proc: func(s protocol.State, op protocol.Op, r protocol.ProcResult) protocol.ProcResult {
				if s == core.R && op == protocol.OpUnlock {
					panic("proc defect")
				}
				return r
			}},
			want: "protocol bitar: ProcAccess(1, unlock) panicked on reachable state",
		},
		{
			name: "transition into state 64",
			p: defective{Protocol: bitar, proc: func(s protocol.State, op protocol.Op, r protocol.ProcResult) protocol.ProcResult {
				if s == core.WSD && op == protocol.OpWriteBlock {
					return protocol.ProcResult{Hit: true, NewState: 64}
				}
				return r
			}},
			want: "protocol bitar: state 64 exceeds dense table bound 63",
		},
		{
			// LSD is dequeued before R, but R is the lower state.
			name: "two defective states report the lower",
			p:    defective{Protocol: bitar, snoop: blockDependent(core.LSD), evict: evictPanics(core.R)},
			want: "protocol bitar: per-state hook panicked on reachable state 1: evict defect",
		},
		{
			// Within one state the per-state hooks are checked first.
			name: "two defects in one state report the first checked",
			p:    defective{Protocol: bitar, complete: requesterDependent(core.RSC), evict: evictPanics(core.RSC)},
			want: "protocol bitar: per-state hook panicked on reachable state 2: evict defect",
		},
		{
			name: "the dense bound outranks a row error",
			p: defective{Protocol: bitar, evict: evictPanics(core.I), proc: func(s protocol.State, op protocol.Op, r protocol.ProcResult) protocol.ProcResult {
				if s == core.LSDW && op == protocol.OpRead {
					return protocol.ProcResult{Hit: true, NewState: 64}
				}
				return r
			}},
			want: "protocol bitar: state 64 exceeds dense table bound 63",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := protocol.Compile(tc.p)
			if err == nil {
				t.Fatalf("Compile accepted the defective protocol (%d states)", tab.NumStates())
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("error:\n got %s\nwant %s", got, tc.want)
			}
		})
	}

	// The wrapper itself, with no defect, compiles to bitar's table.
	tab, err := protocol.Compile(defective{Protocol: bitar})
	if err != nil {
		t.Fatalf("defect-free wrapper refused: %v", err)
	}
	want, err := protocol.Compile(bitar)
	if err != nil {
		t.Fatal(err)
	}
	if tab.GoldenText() != want.GoldenText() {
		t.Fatal("defect-free wrapper compiled to a different table than bitar")
	}
}
