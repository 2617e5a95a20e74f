// Package writethrough implements the classic (pre-1978)
// write-through-invalidate scheme of Section F.1: identical dual
// directories, every write goes through to main memory and broadcasts
// an invalidation of other cached copies. There is no cache-to-cache
// transfer and — as Censier and Feautrier observed — conflicting
// single reads and writes to hard atoms are not serialized by the
// caches, because serialization would require waiting for the bus on
// every write.
package writethrough

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// V is Valid: a clean, readable copy; writes go through to memory.
	V
)

// Protocol is the classic write-through-invalidate scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("writethrough", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "writethrough" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	switch s {
	case I:
		return "I"
	case V:
		return "V"
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol.
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Classic write-through",
		Year:   1978,
		Policy: protocol.PolicyWriteThrough,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid: protocol.MarkNonSource,
			protocol.RowRead:    protocol.MarkNonSource,
		},
		DirectoryOrg: "ID",
	}
}

// ProcAccess implements protocol.Protocol.
func (Protocol) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	switch op {
	case protocol.OpRead, protocol.OpReadEx:
		if s == I {
			return protocol.ProcResult{Cmd: bus.Read}
		}
		return protocol.ProcResult{Hit: true, NewState: V}
	default: // every store writes through; no write-allocate
		return protocol.ProcResult{Cmd: bus.WriteWord}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		return protocol.CompleteResult{NewState: V, Done: true}
	case bus.WriteWord:
		// No write-allocate: a write miss leaves the line invalid; a
		// write hit keeps the (updated) copy valid.
		return protocol.CompleteResult{NewState: s, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "writethrough", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	if s != V {
		return protocol.SnoopResult{NewState: s}
	}
	switch t.Cmd {
	case bus.WriteWord, bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite:
		// Another writer: invalidate the local copy.
		return protocol.SnoopResult{NewState: I, Hit: true}
	case bus.Read, bus.IORead:
		// Memory supplies; the copy just signals presence.
		return protocol.SnoopResult{NewState: V, Hit: true}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol. Write-through lines are never
// dirty.
func (Protocol) Evict(protocol.State) protocol.Evict { return protocol.Evict{} }

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	if s == V {
		return protocol.PrivRead
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(protocol.State) bool { return false }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(protocol.State) bool { return false }
