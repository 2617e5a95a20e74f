// Package dragon implements the Xerox Dragon protocol (Section D.1;
// McCreight 1984): write-in for unshared data and write-through *to
// other caches* — word-granularity update broadcasts — for actively
// shared data. Sharing is determined dynamically from the bus hit
// line. Memory is not updated by the broadcasts; a shared-dirty owner
// retains write-back responsibility. This is the update-based
// counterpoint the paper's Section D.2 analysis argues against for
// general shared data.
package dragon

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// E is Exclusive-clean: sole copy; writes need no bus.
	E
	// SC is Shared-Clean: one of several copies, memory current (or a
	// shared-dirty owner exists elsewhere).
	SC
	// SD is Shared-Dirty: one of several copies, and this cache owns
	// the write-back responsibility (it wrote the block last).
	SD
	// M is Modified: sole, dirty copy.
	M
)

var stateNames = [...]string{I: "I", E: "E", SC: "Sc", SD: "Sd", M: "M"}

// Protocol is the Dragon update scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("dragon", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "dragon" }

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
		Title:  "Dragon (McCreight)",
		Year:   1984,
		Policy: protocol.PolicyUpdate,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowReadDirty:  protocol.MarkSource,
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
			// Write miss: fetch first; the write is a second phase.
			return protocol.ProcResult{Cmd: bus.Read}
		case E:
			return protocol.ProcResult{Hit: true, NewState: M}
		case M:
			return protocol.ProcResult{Hit: true, NewState: M}
		default: // SC, SD: broadcast the word to the other caches.
			return protocol.ProcResult{Cmd: bus.UpdateWord}
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
			// Sharers remain: this cache is now the owner.
			return protocol.CompleteResult{NewState: SD, Done: true}
		}
		// The sharers have vanished: sole dirty copy.
		return protocol.CompleteResult{NewState: M, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "dragon", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case E:
			return protocol.SnoopResult{NewState: SC, Hit: true}
		case SC:
			return protocol.SnoopResult{NewState: SC, Hit: true}
		case SD:
			// The owner supplies (memory is stale) and stays owner.
			return protocol.SnoopResult{NewState: SD, Hit: true, Supply: true, Dirty: true}
		case M:
			ns := SD
			if t.Cmd == bus.IORead {
				ns = M
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true, Dirty: true}
		}
	case bus.UpdateWord, bus.WriteWord:
		switch s {
		case SC:
			return protocol.SnoopResult{NewState: SC, Hit: true, UpdateWord: true}
		case SD:
			// The writer takes over ownership; this copy demotes.
			return protocol.SnoopResult{NewState: SC, Hit: true, UpdateWord: true}
		case E, M:
			// Cannot happen in a pure Dragon system (an update implies
			// sharing); accept the word defensively.
			return protocol.SnoopResult{NewState: SC, Hit: true, UpdateWord: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite:
		// Only I/O and cross-protocol tests issue these in a Dragon
		// system.
		switch s {
		case E, SC:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case SD, M:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
		}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	return protocol.Evict{Writeback: s == SD || s == M}
}

// Privilege implements protocol.Protocol. Shared copies may be
// written only via a bus broadcast, so they classify as read
// privilege.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case SC, SD:
		return protocol.PrivRead
	case E, M:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == SD || s == M }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool { return s == SD || s == M }
