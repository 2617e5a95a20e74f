// Package censier implements the Censier-Feautrier 1978 scheme
// (Sections F.1, F.2; Table 2 "Early Schemes"): a *partial-broadcast*
// write-in protocol. Main memory keeps a presence directory, so
// consistency requests are sent point-to-point to the recorded
// holders rather than broadcast — each message is serialized and
// priced by the engine (Timing.DirMsgCycles), which is exactly the
// cost the paper's full-broadcast systems avoid (Section A.2). The
// scheme contributed cache-to-cache transfer for dirty blocks and the
// primitive efficient busy wait of looping on a block in the cache.
package censier

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// V is Valid: clean, possibly shared.
	V
	// D is Dirty: sole, modified copy; supplies on directory request.
	D
)

var stateNames = [...]string{I: "I", V: "V", D: "D"}

// Protocol is the Censier-Feautrier directory scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("censier", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "censier" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol. Censier-Feautrier predates
// Table 1 (which covers full-broadcast schemes); the descriptor
// records its own column.
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Censier, Feautrier",
		Year:   1978,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:     true, // for dirty blocks
		DistributedState: "RWD",
		PartialBroadcast: true,
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
			return protocol.ProcResult{Cmd: bus.ReadX}
		case V:
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
	case bus.ReadX, bus.Upgrade:
		return protocol.CompleteResult{NewState: D, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "censier", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol. Under a directory system this
// runs only in the caches the directory targeted.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: V, Hit: true}
		case D:
			// Cache-to-cache transfer for dirty blocks, flushed so
			// memory (and its directory) are current again.
			return protocol.SnoopResult{NewState: V, Hit: true, Supply: true, Flush: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.WriteWord, bus.IOWrite:
		switch s {
		case V:
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
	case V:
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
