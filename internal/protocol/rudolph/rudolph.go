// Package rudolph implements the Rudolph-Segall 1984 dynamic
// write-through/write-in scheme (Sections D.1, E.4): a block is
// considered shared while accesses interleave among processors.
// Write-through is used on a processor's first write to a block after
// another processor accessed it; write-in on subsequent writes. To
// make the scheme double as an efficient busy-wait mechanism,
// write-throughs update *invalid* as well as valid copies — which
// forces the block size down to one word (Section E.4).
//
// The second write — the transition into write-in mode — must
// invalidate any remaining copies; it is skipped when the
// write-through observed no other copy on the hit line.
package rudolph

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid; invalid copies still snoop and take broadcast
	// write-through words (the tag is retained).
	I protocol.State = iota
	// V is Valid: a readable copy kept current by the write-through
	// broadcasts.
	V
	// W1 is Written-once: this cache performed the write-through for
	// the block's first write after interleaved access; memory is
	// current.
	W1
	// D is Dirty: written at least twice with no interleaved access;
	// write-in mode, sole up-to-date copy, the source.
	D
)

var stateNames = [...]string{I: "I", V: "V", W1: "W1", D: "D"}

// Protocol is the Rudolph-Segall scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("rudolph", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "rudolph" }

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
		Title:  "Rudolph, Segall",
		Year:   1984,
		Policy: protocol.PolicyHybrid,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteClean: protocol.MarkNonSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:      true,
		DistributedState:  "RWD",
		EfficientBusyWait: true,
		SnoopsInvalid:     true,
		OneWordBlocks:     true,
		WriteAllocates:    true,
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
		case I, V:
			// First write after interleaved access (or a write miss):
			// write through, updating valid and invalid copies alike.
			return protocol.ProcResult{Cmd: bus.WriteWord}
		case W1:
			// Second write: switch to write-in. Remaining copies must
			// be invalidated.
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // D
			return protocol.ProcResult{Hit: true, NewState: D}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		return protocol.CompleteResult{NewState: V, Done: true}
	case bus.WriteWord:
		// Even when no copy asserted hit, an invalid copy may have
		// taken the word and revived (it cannot raise the hit line),
		// so the second write must always run the invalidation.
		return protocol.CompleteResult{NewState: W1, Done: true}
	case bus.Upgrade:
		return protocol.CompleteResult{NewState: D, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "rudolph", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol. Snoop is also called for
// invalid lines with a matching tag (SnoopsInvalid).
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case V, W1:
			// Another processor accessed the block: back to
			// write-through mode on the next write.
			return protocol.SnoopResult{NewState: V, Hit: true}
		case D:
			// Interleaved access ends write-in mode; supply and flush
			// so memory is current again.
			ns := V
			if t.Cmd == bus.IORead {
				ns = D
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true, Flush: true}
		}
	case bus.WriteWord:
		// Write-throughs update invalid as well as valid copies
		// (Section E.4) — the essence of their busy-wait support.
		switch s {
		case I:
			return protocol.SnoopResult{NewState: V, TakeWord: true}
		case V, W1:
			return protocol.SnoopResult{NewState: V, Hit: true, UpdateWord: true}
		case D:
			// Cannot happen for matched tags in a consistent system;
			// accept the word defensively.
			return protocol.SnoopResult{NewState: V, Hit: true, UpdateWord: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite:
		switch s {
		case V, W1:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case D:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Flush: true}
		}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	return protocol.Evict{Writeback: s == D}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case V, W1:
		return protocol.PrivRead
	case D:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == D }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool { return s == D }
