// Package yen implements the Yen, Yen, Fu 1985 protocol (Section
// F.2): Goodman's states combined with a bus invalidate signal
// (Feature 4) and a *static* determination of unshared data — the
// compiler issues a special read-for-write-privilege instruction for
// reads of unshared data, which takes effect only on misses (Feature
// 5 "S"). The clean write state is a non-source state (Table 1), and
// dirty blocks are flushed on cache-to-cache transfer (Feature 7 "F").
package yen

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
	// WC is Write-Clean: sole copy with write privilege, clean,
	// non-source; entered by the static read-for-write instruction.
	WC
	// D is Dirty: sole, modified copy; the source.
	D
)

var stateNames = [...]string{I: "I", V: "V", WC: "WC", D: "D"}

// Protocol is the Yen-Yen-Fu scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("yen", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "yen" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (Table 1, column 4).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Yen, Yen, Fu",
		Year:   1985,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteClean: protocol.MarkNonSource,
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:        true,
		DistributedState:    "RWDS",
		BusInvalidateSignal: true,
		ReadForWrite:        "S",
		FlushOnTransfer:     "F",
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
		// The special instruction affects a cache access only on a
		// miss (Section F.3, Feature 5).
		if s == I {
			return protocol.ProcResult{Cmd: bus.ReadX}
		}
		return protocol.ProcResult{Hit: true, NewState: s}
	default: // writes
		switch s {
		case I:
			return protocol.ProcResult{Cmd: bus.ReadX}
		case V:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // WC, D
			return protocol.ProcResult{Hit: true, NewState: D}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		return protocol.CompleteResult{NewState: V, Done: true}
	case bus.ReadX:
		if op == protocol.OpReadEx {
			// Unshared data fetched for write privilege arrives clean.
			return protocol.CompleteResult{NewState: WC, Done: true}
		}
		return protocol.CompleteResult{NewState: D, Done: true}
	case bus.Upgrade:
		return protocol.CompleteResult{NewState: D, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "yen", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: V, Hit: true}
		case WC:
			// Write privilege is lost; the clean copy remains
			// readable. Non-source: memory supplies.
			return protocol.SnoopResult{NewState: V, Hit: true}
		case D:
			return protocol.SnoopResult{NewState: V, Hit: true, Supply: true, Flush: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite, bus.WriteWord:
		switch s {
		case V, WC:
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
	case WC, D:
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == D }

// IsSource implements protocol.Protocol. The clean write state is a
// non-source state under Yen et al. (Table 1).
func (Protocol) IsSource(s protocol.State) bool { return s == D }
