// Package synapse implements Frank's 1984 Synapse protocol (Section
// F.2): a write-in scheme on a proprietary bus that supports an
// explicit invalidate signal (Feature 4), so invalidation rides on
// the block fetch and Goodman's clean write state disappears. Source
// status is not fully distributed: main memory keeps a per-block
// source bit. A source cache provides data only for a write-privilege
// request (Table 1 note 1); a read request against a dirty block
// forces the holder to write the block back, and memory then supplies
// it — costed by the engine as the Synapse reject-and-retry penalty.
// Transfers are not flushed (Feature 7 "NF").
package synapse

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// V is Valid: a clean, possibly shared copy.
	V
	// D is Dirty: sole copy, modified; source for write-privilege
	// requests only.
	D
)

var stateNames = [...]string{I: "I", V: "V", D: "D"}

// Protocol is Frank's Synapse scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("synapse", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "synapse" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (Table 1, column 2).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Frank (Synapse)",
		Year:   1984,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteDirty: protocol.MarkSource, // note 1: write-privilege requests only
		},
		CacheToCache:        true,
		DistributedState:    "RWD", // source bit lives in memory
		DirectoryOrg:        "ID",
		BusInvalidateSignal: true,
		AtomicRMW:           true,
		FlushOnTransfer:     "NF",
		MemorySourceBit:     true,
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
			// Invalidation is concurrent with the fetch (Feature 4).
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
	panic(protocol.UnexpectedCmd{Prefix: "synapse", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: V, Hit: true}
		case D:
			// A source cache does not provide data for a
			// read-privilege request: it writes the block back and
			// memory supplies it (the Synapse retry).
			return protocol.SnoopResult{NewState: V, Hit: true, Flush: true}
		}
	case bus.ReadX:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case D:
			// Write-privilege request: supply without flushing
			// (Feature 7 "NF").
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
		}
	case bus.Upgrade, bus.WriteNoFetch, bus.IOWrite, bus.WriteWord:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case D:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
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
