// Package firefly implements the DEC Firefly protocol (Section D.1;
// reported by Archibald and Baer): like Dragon, write-in for unshared
// data and word-update broadcasts for shared data, but the update
// broadcasts also write through to main memory, so shared copies are
// always clean and no shared-dirty owner state is needed.
package firefly

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// E is Exclusive-clean: sole copy.
	E
	// SC is Shared-Clean: one of several copies; memory is current.
	SC
	// M is Modified: sole, dirty copy.
	M
)

var stateNames = [...]string{I: "I", E: "E", SC: "Sc", M: "M"}

// Protocol is the Firefly update scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("firefly", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "firefly" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol.
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Firefly (DEC)",
		Year:   1984,
		Policy: protocol.PolicyUpdate,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteClean: protocol.MarkSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:     true,
		DistributedState: "RWDS",
		ReadForWrite:     "D",
	}
}

// ProcAccess implements protocol.Protocol.
func (Protocol) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	switch op {
	case protocol.OpRead, protocol.OpReadEx:
		if s == I {
			return protocol.ProcResult{Cmd: bus.Read}
		}
		return protocol.ProcResult{Hit: true, NewState: s}
	default: // writes
		switch s {
		case I:
			return protocol.ProcResult{Cmd: bus.Read}
		case E, M:
			return protocol.ProcResult{Hit: true, NewState: M}
		default: // SC: update broadcast, written through to memory too
			return protocol.ProcResult{Cmd: bus.UpdateWord, MemUpdate: true}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		shared := t.Lines.Hit || t.Lines.SourceHit
		ns := E
		if shared {
			ns = SC
		}
		done := op == protocol.OpRead || op == protocol.OpReadEx
		return protocol.CompleteResult{NewState: ns, Done: done}
	case bus.UpdateWord:
		if t.Lines.Hit {
			// Memory was written through: the copy stays clean-shared.
			return protocol.CompleteResult{NewState: SC, Done: true}
		}
		// No sharers remain; memory was just updated, so exclusive
		// and clean.
		return protocol.CompleteResult{NewState: E, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "firefly", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case E, SC:
			return protocol.SnoopResult{NewState: SC, Hit: true}
		case M:
			// Supply and flush: shared copies are always clean under
			// Firefly.
			ns := SC
			if t.Cmd == bus.IORead {
				ns = M
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true, Flush: true}
		}
	case bus.UpdateWord, bus.WriteWord:
		if s == SC {
			return protocol.SnoopResult{NewState: SC, Hit: true, UpdateWord: true}
		}
		if s == E || s == M {
			return protocol.SnoopResult{NewState: SC, Hit: true, UpdateWord: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite:
		switch s {
		case E, SC:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case M:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Flush: true}
		}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	return protocol.Evict{Writeback: s == M}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case SC:
		return protocol.PrivRead
	case E, M:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == M }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool { return s == M }
