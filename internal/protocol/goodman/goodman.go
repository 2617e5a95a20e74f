// Package goodman implements Goodman's 1983 write-once protocol
// (Sections F.1, F.2): the first full-broadcast write-in scheme, with
// identical dual directories and fully distributed
// read/write/dirty/source status. The first write to a block goes
// through to memory — the original Multibus allowed no invalidation
// signal concurrent with a fetch, so the write-through doubles as the
// invalidation broadcast — leaving the block clean in the Reserved
// state; only the second write makes the block dirty, at which point
// the cache becomes its source. Dirty blocks are flushed to memory
// when transferred cache-to-cache, so they arrive clean (Feature 7
// "F").
package goodman

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
	// R is Reserved: written exactly once (the write went through to
	// memory, invalidating other copies), still clean.
	R
	// D is Dirty: written at least twice; the sole, dirty copy and the
	// source of the block.
	D
)

var stateNames = [...]string{I: "I", V: "V", R: "R", D: "D"}

// Protocol is Goodman's write-once scheme.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("goodman", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "goodman" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (Table 1, column 1).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Goodman",
		Year:   1983,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:    protocol.MarkNonSource,
			protocol.RowRead:       protocol.MarkNonSource,
			protocol.RowWriteClean: protocol.MarkNonSource, // Reserved
			protocol.RowWriteDirty: protocol.MarkSource,
		},
		CacheToCache:     true,
		DistributedState: "RWDS",
		DirectoryOrg:     "ID",
		FlushOnTransfer:  "F",
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
			// Write miss: fetch the block first; the write-through
			// follows as a second phase.
			return protocol.ProcResult{Cmd: bus.Read}
		case V:
			// First write: write through to memory; the broadcast
			// invalidates every other copy.
			return protocol.ProcResult{Cmd: bus.WriteWord}
		case R:
			// Second write: the block becomes dirty and this cache
			// becomes its source. No bus access needed.
			return protocol.ProcResult{Hit: true, NewState: D}
		default: // D
			return protocol.ProcResult{Hit: true, NewState: D}
		}
	}
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	switch t.Cmd {
	case bus.Read:
		// Dirty blocks are flushed when transferred, so the copy
		// always arrives clean.
		done := op == protocol.OpRead || op == protocol.OpReadEx
		return protocol.CompleteResult{NewState: V, Done: done}
	case bus.WriteWord:
		return protocol.CompleteResult{NewState: R, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "goodman", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read, bus.IORead:
		switch s {
		case V:
			return protocol.SnoopResult{NewState: V, Hit: true}
		case R:
			// Reserve is lost once anyone else fetches the block.
			return protocol.SnoopResult{NewState: V, Hit: true}
		case D:
			// Source function: supply the block and flush it to
			// memory concurrently, so it arrives clean.
			return protocol.SnoopResult{NewState: V, Hit: true, Supply: true, Flush: true}
		}
	case bus.WriteWord:
		// Another cache's write-through invalidates the local copy.
		if s != I {
			return protocol.SnoopResult{NewState: I, Hit: true}
		}
	case bus.ReadX, bus.Upgrade, bus.WriteNoFetch, bus.IOWrite:
		// Not issued by Goodman caches, but I/O and mixed-protocol
		// tests use them.
		switch s {
		case V, R:
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
	case R, D:
		// Reserved and Dirty hold the sole copy: the invalidating
		// write-through purged every other cache.
		return protocol.PrivWrite
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool { return s == D }

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool { return s == D }
