// Package locke implements LOCKE, the lock-based coherence protocol
// of Menezo, Puente and Gregorio, from its published specification
// tables (arXiv:1203.5349), as the repository's 13th protocol.
//
// LOCKE is specified for unordered point-to-point networks, where each
// controller walks a lock/unlock handshake through transient states
// before a request completes. On this repository's atomic broadcast
// bus every transaction is globally ordered and runs to completion in
// one step, so the handshake collapses and only the specification's
// stable states remain:
//
//	I   Invalid
//	S   Shared          read privilege, not the source
//	E   Exclusive       sole clean copy, write privilege
//	O   Owned           shared dirty copy, source, read privilege
//	M   Modified        sole dirty copy, write privilege
//	L   Locked          sole dirty copy, locked by this cache
//	LW  Locked, Waiter  as L, with a recorded waiter
//
// The ownership half is the specification's MOESI repertoire: a read
// miss with no cached copy installs E (dynamic read-for-write,
// Feature 5 "D"); a dirty source answers a fetch with the block and
// its dirty status but keeps ownership (O), so memory is never
// updated on a cache-to-cache transfer (Feature 7 "NF,S") and falls
// back to being the source only when no owner exists (Feature 8
// "MEM") — the opposite of the paper's last-fetcher-becomes-source
// rule, which makes LOCKE a useful 13th point in the design space.
// The lock half is the specification's distinguishing feature mapped
// onto the bus exactly as Section E maps the paper's proposal: a lock
// rides the fetch (ReadX/Upgrade with lock intent), a locked line
// answers snoops with the locked signal and records the waiter
// (L→LW), unlocking broadcasts only when a waiter is recorded, and
// evicting a locked line purges the lock bit to memory for later
// reclaim.
package locke

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// The seven stable states.
const (
	// I is Invalid.
	I protocol.State = iota
	// S is Shared: read privilege, non-source.
	S
	// E is Exclusive: the sole copy, clean, write privilege.
	E
	// O is Owned: a shared dirty copy with the source function.
	O
	// M is Modified: the sole copy, dirty, write privilege.
	M
	// L is Locked: as M, locked by this cache.
	L
	// LW is Locked with a recorded waiter.
	LW
)

var stateNames = [...]string{
	I: "I", S: "S", E: "E", O: "O", M: "M", L: "L", LW: "LW",
}

// Protocol is the LOCKE adaptation. The zero value is ready to use; it
// is stateless and safe to share across caches.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}
var _ protocol.LockReclaimer = Protocol{}

func init() {
	protocol.Register("locke", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "locke" }

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
		Title:  "LOCKE (Menezo, Puente, Gregorio)",
		Year:   2012,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:       protocol.MarkNonSource,
			protocol.RowRead:          protocol.MarkNonSource, // S
			protocol.RowReadDirty:     protocol.MarkSource,    // O
			protocol.RowWriteClean:    protocol.MarkSource,    // E
			protocol.RowWriteDirty:    protocol.MarkSource,    // M
			protocol.RowLockDirty:     protocol.MarkSource,    // L
			protocol.RowLockDirtyWait: protocol.MarkSource,    // LW
		},
		CacheToCache:        true,
		DistributedState:    "RWLDS",
		BusInvalidateSignal: true,
		ReadForWrite:        "D",
		AtomicRMW:           true,
		FlushOnTransfer:     "NF,S",
		SourcePolicy:        "MEM",
		WriteNoFetch:        true,
		EfficientBusyWait:   true,
		HardwareLock:        true,
	}
}

// ProcAccess implements protocol.Protocol.
func (Protocol) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	switch op {
	case protocol.OpRead, protocol.OpReadEx:
		// Unshared status is determined dynamically from the hit line,
		// so OpReadEx behaves exactly like OpRead.
		if s == I {
			return protocol.ProcResult{Cmd: bus.Read}
		}
		return protocol.ProcResult{Hit: true, NewState: s}

	case protocol.OpWrite:
		switch s {
		case I:
			return protocol.ProcResult{Cmd: bus.ReadX}
		case S, O:
			// A valid copy exists — the owner included: O confers read
			// privilege only while other sharers may hold the block, so
			// writing requires the one-cycle invalidation.
			return protocol.ProcResult{Cmd: bus.Upgrade}
		case E, M:
			return protocol.ProcResult{Hit: true, NewState: M}
		default: // L, LW: writing while locked stays locked.
			return protocol.ProcResult{Hit: true, NewState: s}
		}

	case protocol.OpLock:
		switch s {
		case I:
			// Locking rides the fetch: no extra bus traffic.
			return protocol.ProcResult{Cmd: bus.ReadX, LockIntent: true}
		case S, O:
			return protocol.ProcResult{Cmd: bus.Upgrade, LockIntent: true}
		case E, M:
			// Zero-time lock: sole access already held.
			return protocol.ProcResult{Hit: true, NewState: L}
		default: // L, LW: recursive lock is a no-op.
			return protocol.ProcResult{Hit: true, NewState: s}
		}

	case protocol.OpUnlock:
		switch s {
		case L:
			// Zero-time unlock: the unlock is the final write to the
			// block, no bus access.
			return protocol.ProcResult{Hit: true, NewState: M}
		case LW:
			// A waiter was recorded: broadcast the unlock so busy-wait
			// registers re-arbitrate.
			return protocol.ProcResult{Cmd: bus.Unlock}
		case E, M:
			// Unlock without a held lock degenerates to a write (the
			// lock may have been reclaimed from a memory lock tag).
			return protocol.ProcResult{Hit: true, NewState: M}
		case S, O:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // I: the locked block was purged; re-fetch to unlock.
			return protocol.ProcResult{Cmd: bus.ReadX}
		}

	case protocol.OpWriteBlock:
		switch s {
		case I:
			// The whole block will be written: gain write privilege
			// without fetching (Feature 9).
			return protocol.ProcResult{Cmd: bus.WriteNoFetch}
		case S, O:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		case E, M:
			return protocol.ProcResult{Hit: true, NewState: M}
		default: // L, LW
			return protocol.ProcResult{Hit: true, NewState: s}
		}
	}
	panic(fmt.Sprintf("locke: unknown op %v", op))
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	if t.Lines.Locked {
		// The block is locked elsewhere: the request is denied and the
		// cache initiates busy wait.
		return protocol.CompleteResult{NewState: s, BusyWait: true}
	}
	switch t.Cmd {
	case bus.Read:
		if !t.Lines.Hit && !t.Lines.SourceHit {
			// No other cache has the block: install Exclusive so a
			// later write needs no bus access.
			return protocol.CompleteResult{NewState: E, Done: true}
		}
		// A cached copy exists. A dirty source keeps ownership (it
		// stays O), so the fetcher always installs plain Shared —
		// whether the block came from the owner or from memory.
		return protocol.CompleteResult{NewState: S, Done: true}
	case bus.ReadX, bus.Upgrade:
		switch op {
		case protocol.OpLock:
			if t.AfterWait {
				// The arbitration winner locks in the waiter state,
				// since other waiters probably remain.
				return protocol.CompleteResult{NewState: LW, Done: true}
			}
			return protocol.CompleteResult{NewState: L, Done: true}
		case protocol.OpUnlock:
			// Lock-purge reclaim: the block is back with lock
			// privilege; re-run the unlock against it. The engine fixes
			// up L vs LW from the memory lock tag's waiter bit.
			return protocol.CompleteResult{NewState: L, Done: false}
		default:
			return protocol.CompleteResult{NewState: M, Done: true}
		}
	case bus.WriteNoFetch:
		return protocol.CompleteResult{NewState: M, Done: true}
	case bus.Unlock:
		// The unlock broadcast completes the unlock-write.
		return protocol.CompleteResult{NewState: M, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "locke", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read:
		switch s {
		case S:
			return protocol.SnoopResult{NewState: S, Hit: true}
		case E:
			// The clean sole copy supplies and demotes to Shared;
			// memory becomes the source again.
			return protocol.SnoopResult{NewState: S, Hit: true, Supply: true}
		case O:
			// The owner supplies the block and its dirty status but
			// keeps ownership: no flush, no source handoff.
			return protocol.SnoopResult{NewState: O, Hit: true, Supply: true, Dirty: true}
		case M:
			return protocol.SnoopResult{NewState: O, Hit: true, Supply: true, Dirty: true}
		case L:
			// Another processor wants the locked block: record the
			// waiter.
			return protocol.SnoopResult{NewState: LW, Locked: true}
		case LW:
			return protocol.SnoopResult{NewState: LW, Locked: true}
		}

	case bus.ReadX:
		switch s {
		case S:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case E:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true}
		case O, M:
			// Dirty responsibility moves with the sole-access grant.
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
		case L:
			return protocol.SnoopResult{NewState: LW, Locked: true}
		case LW:
			return protocol.SnoopResult{NewState: LW, Locked: true}
		}

	case bus.Upgrade, bus.WriteNoFetch, bus.WriteWord:
		switch s {
		case S, E:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case O, M:
			return protocol.SnoopResult{NewState: I, Hit: true, Dirty: true}
		case L:
			return protocol.SnoopResult{NewState: LW, Locked: true}
		case LW:
			return protocol.SnoopResult{NewState: LW, Locked: true}
		}

	case bus.IORead:
		// Non-paging output: supply but keep line state.
		switch s {
		case S:
			return protocol.SnoopResult{NewState: S, Hit: true}
		case E:
			return protocol.SnoopResult{NewState: E, Hit: true, Supply: true}
		case O, M:
			return protocol.SnoopResult{NewState: s, Hit: true, Supply: true, Dirty: true}
		case L, LW:
			return protocol.SnoopResult{NewState: s, Locked: true}
		}

	case bus.IOWrite:
		// Input: the I/O processor writes memory; cached copies
		// invalidate.
		switch s {
		case I:
			return protocol.SnoopResult{NewState: I}
		case L, LW:
			return protocol.SnoopResult{NewState: s, Locked: true}
		default:
			return protocol.SnoopResult{NewState: I, Hit: true}
		}

	case bus.Unlock, bus.Flush:
		// Unlock wakes busy-wait registers (cache level); a Flush is
		// another cache's writeback. Neither changes line state.
		return protocol.SnoopResult{NewState: s}
	}
	return protocol.SnoopResult{NewState: s}
}

// ReclaimedLockState implements protocol.LockReclaimer: when the owner
// re-fetches a block whose lock bit was purged to memory, the line
// re-enters the lock state, carrying over the recorded-waiter bit.
func (Protocol) ReclaimedLockState(waiter bool) protocol.State {
	if waiter {
		return LW
	}
	return L
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	switch s {
	case O, M:
		return protocol.Evict{Writeback: true}
	case L:
		return protocol.Evict{Writeback: true, LockPurge: true}
	case LW:
		return protocol.Evict{Writeback: true, LockPurge: true, Waiter: true}
	}
	return protocol.Evict{}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case S, O:
		return protocol.PrivRead
	case E, M:
		return protocol.PrivWrite
	case L, LW:
		return protocol.PrivLock
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool {
	return s == O || s == M || s == L || s == LW
}

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool {
	return s != I && s != S
}
