// Package berkeley implements the Katz, Eggers, Wood, Perkins,
// Sheldon 1985 protocol (Section F.2): the Berkeley ownership scheme
// built for SPUR. It introduced the dirty read state — a write-dirty
// source converts to read-dirty, remaining the (single) source and
// remaining dirty, when another cache requests read privilege —
// because the block is not flushed on transfer (Feature 7 "NF,S":
// clean/dirty status travels with the block). Unshared data is
// fetched for write privilege by a compiler-issued read instruction
// (Feature 5 "S"), entering the clean write state. If the single
// source purges a block, the next fetch falls back to memory (Feature
// 8 "MEM"). A single dual-ported-read directory replaces the dual
// directories (Feature 3 "DPR").
package berkeley

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// States.
const (
	// I is Invalid.
	I protocol.State = iota
	// R is Read: a clean, non-source, possibly shared copy.
	R
	// RD is Read-Dirty: readable, dirty, the single source
	// ("owned shared").
	RD
	// WC is Write-Clean: sole copy fetched for write privilege by the
	// static read instruction; clean but a source state (Table 1).
	WC
	// WD is Write-Dirty: sole, modified copy; the source.
	WD
)

var stateNames = [...]string{I: "I", R: "R", RD: "R.D", WC: "W.C", WD: "W.D"}

// Protocol is the Katz et al. Berkeley scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("berkeley", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "berkeley" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (Table 1, column 5).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Katz et al.",
		Year:   1985,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowReadDirty:  protocol.MarkSource,
			protocol.RowWriteClean: protocol.MarkSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:        true,
		DistributedState:    "RWDS",
		DirectoryOrg:        "DPR",
		BusInvalidateSignal: true,
		ReadForWrite:        "S",
		AtomicRMW:           true,
		FlushOnTransfer:     "NF,S",
		SourcePolicy:        "MEM",
	}
}

// ProcAccess implements protocol.Protocol.
func (Protocol) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	switch op {
	case protocol.OpRead:
		if s == I {
			return protocol.ProcResult{Cmd: bus.Read}
		}
		return protocol.ProcResult{Hit: true, NewState: s}
	case protocol.OpReadEx:
		if s == I {
			return protocol.ProcResult{Cmd: bus.ReadX}
		}
		return protocol.ProcResult{Hit: true, NewState: s}
	default: // writes
		switch s {
		case I:
			return protocol.ProcResult{Cmd: bus.ReadX}
		case R, RD:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // WC, WD
			return protocol.ProcResult{Hit: true, NewState: WD}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		// The requester never becomes source by a plain read: the old
		// source keeps ownership (or memory supplied).
		return protocol.CompleteResult{NewState: R, Done: true}
	case bus.ReadX:
		if op == protocol.OpReadEx {
			return protocol.CompleteResult{NewState: WC, Done: true}
		}
		return protocol.CompleteResult{NewState: WD, Done: true}
	case bus.Upgrade:
		return protocol.CompleteResult{NewState: WD, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "berkeley", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case R:
			return protocol.SnoopResult{NewState: R, Hit: true}
		case RD:
			// The dirty read source supplies without flushing and
			// keeps ownership; dirty status travels on the bus
			// (Feature 7 "NF,S").
			return protocol.SnoopResult{NewState: RD, Hit: true, Supply: true, Dirty: true}
		case WC:
			// Write privilege is lost. Katz et al. give the clean
			// write state source status, so it supplies, then drops
			// to the plain read state (there is no clean read source
			// state — the inconsistency Section F.3 remarks on).
			ns := R
			if t.Cmd == bus.IORead {
				ns = WC
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true}
		case WD:
			ns := RD
			if t.Cmd == bus.IORead {
				ns = WD
			}
			return protocol.SnoopResult{NewState: ns, Hit: true, Supply: true, Dirty: true}
		}
	case bus.ReadX:
		switch s {
		case R:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case RD, WD:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
		case WC:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true}
		}
	case bus.Upgrade, bus.WriteNoFetch, bus.IOWrite, bus.WriteWord:
		switch s {
		case R, WC:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case RD, WD:
			// The upgrader holds an identical copy; dirty
			// responsibility transfers with the privilege.
			return protocol.SnoopResult{NewState: I, Hit: true, Dirty: true}
		}
	}
	return protocol.SnoopResult{NewState: s}
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	return protocol.Evict{Writeback: s == RD || s == WD}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case R, RD:
		return protocol.PrivRead
	case WC, WD:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == RD || s == WD }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool { return s == RD || s == WC || s == WD }
