// Package illinois implements the Papamarcos-Patel 1984 protocol
// (Section F.2): the Illinois scheme. It introduced the clean write
// (valid-exclusive) state for fetching unshared data with write
// privilege on a read miss, determined dynamically from the bus hit
// line (Feature 5 "D"), and it extends the source function to clean
// states: if any cache has the block, a cache — not memory — supplies
// it, with potential sources arbitrating first (Feature 8 "ARB").
// Dirty blocks are flushed to memory while transferred, so copies
// always arrive clean (Feature 7 "F").
package illinois

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States (the familiar MESI naming maps as: E=VE, S=SH, M=DI).
const (
	// I is Invalid.
	I protocol.State = iota
	// SH is Shared: clean, possibly in several caches; every holder is
	// a potential source (ARB).
	SH
	// VE is Valid-Exclusive: clean, sole copy; a later write needs no
	// bus access.
	VE
	// DI is Dirty: modified, sole copy.
	DI
)

var stateNames = [...]string{I: "I", SH: "S", VE: "E", DI: "M"}

// Protocol is the Papamarcos-Patel Illinois scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("illinois", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "illinois" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (Table 1, column 3).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Papamarcos, Patel",
		Year:   1984,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowReadClean:  protocol.MarkSource,
			protocol.RowWriteClean: protocol.MarkSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:        true,
		DistributedState:    "RWDS",
		DirectoryOrg:        "ID",
		BusInvalidateSignal: true,
		ReadForWrite:        "D",
		AtomicRMW:           true,
		FlushOnTransfer:     "F",
		SourcePolicy:        "ARB",
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
		case SH:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // VE, DI: exclusive, write silently
			return protocol.ProcResult{Hit: true, NewState: DI}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		if !t.Lines.Hit && !t.Lines.SourceHit {
			// No other copy: valid-exclusive (Feature 5 "D").
			return protocol.CompleteResult{NewState: VE, Done: true}
		}
		// Supplied by a cache after source arbitration; dirty blocks
		// were flushed during the transfer, so the copy is clean.
		return protocol.CompleteResult{NewState: SH, Done: true}
	case bus.ReadX, bus.Upgrade:
		return protocol.CompleteResult{NewState: DI, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "illinois", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case SH:
			// Every holder is a potential source; the engine
			// arbitrates (Feature 8 "ARB").
			return protocol.SnoopResult{NewState: SH, Hit: true, Supply: true}
		case VE:
			return protocol.SnoopResult{NewState: SH, Hit: true, Supply: true}
		case DI:
			// Supply and flush concurrently (Feature 7 "F").
			ns := SH
			if t.Cmd == bus.IORead {
				ns = DI // non-paging output keeps the state
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true, Flush: true}
		}
	case bus.ReadX:
		switch s {
		case SH, VE:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true}
		case DI:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Flush: true}
		}
	case bus.Upgrade, bus.WriteNoFetch, bus.IOWrite, bus.WriteWord:
		switch s {
		case SH, VE:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case DI:
			return protocol.SnoopResult{NewState: I, Hit: true, Flush: true}
		}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	return protocol.Evict{Writeback: s == DI}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case SH:
		return protocol.PrivRead
	case VE, DI:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == DI }

// IsSource implements protocol.Protocol. Under Illinois every valid
// state is a potential source.
func (Protocol) IsSource(s protocol.State) bool { return s != I }
