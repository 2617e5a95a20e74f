// Package core implements the paper's primary contribution: the
// Bitar-Despain cache-synchronization protocol (Section E), a
// full-broadcast write-in scheme whose eight states carry lock
// privilege in addition to read/write privilege:
//
//	Invalid
//	Read
//	Read, Source, Clean        Read, Source, Dirty
//	Write, Source, Clean       Write, Source, Dirty
//	Lock, Source, Dirty        Lock, Source, Dirty, Waiter
//
// Locking rides on the block fetch (a lock is a processor read with
// the lock line asserted, Figure 6), so locking and unlocking usually
// occur in zero time; the lock-waiter state records that another
// cache requested the block while locked (Figure 7); unlocking
// broadcasts on the bus only when a waiter is recorded (Figure 8);
// and the per-cache busy-wait register joins the next arbitration at
// high priority so that no unsuccessful retry ever appears on the bus
// (Figure 9).
//
// The protocol also carries the rest of the paper's Table 1 column:
// cache-to-cache transfer without flushing but with clean/dirty status
// (Feature 7 "NF,S"), last-fetcher-becomes-source (Feature 8
// "LRU,MEM"), fetching unshared data for write privilege on a read
// miss with dynamic determination (Feature 5 "D", Figure 1), the bus
// invalidate signal (Feature 4), and writing without fetch on a write
// miss (Feature 9).
package core

import (
	"fmt"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
)

// The eight states of Section E.1.
const (
	// I is Invalid.
	I protocol.State = iota
	// R is Read: read privilege, not the source.
	R
	// RSC is Read, Source, Clean.
	RSC
	// RSD is Read, Source, Dirty.
	RSD
	// WSC is Write, Source, Clean.
	WSC
	// WSD is Write, Source, Dirty.
	WSD
	// LSD is Lock, Source, Dirty.
	LSD
	// LSDW is Lock, Source, Dirty, Waiter.
	LSDW
)

var stateNames = [...]string{
	I: "I", R: "R", RSC: "R.S.C", RSD: "R.S.D",
	WSC: "W.S.C", WSD: "W.S.D", LSD: "L.S.D", LSDW: "L.S.D.W",
}

// Protocol is the Bitar-Despain proposal. The zero value is ready to
// use; it is stateless and safe to share across caches.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

func init() {
	protocol.Register("bitar", func() protocol.Protocol { return Protocol{} })
}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "bitar" }

// StateName implements protocol.Protocol.
func (Protocol) StateName(s protocol.State) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint16(s))
}

// Features implements protocol.Protocol (the paper's own Table 1
// column).
func (Protocol) Features() protocol.Features {
	return protocol.Features{
		Title:  "Our proposal (Bitar, Despain)",
		Year:   1986,
		Policy: protocol.PolicyWriteIn,
		States: map[protocol.StateRow]protocol.SourceMark{
			protocol.RowInvalid:       protocol.MarkNonSource,
			protocol.RowRead:          protocol.MarkNonSource,
			protocol.RowReadClean:     protocol.MarkSource,
			protocol.RowReadDirty:     protocol.MarkSource,
			protocol.RowWriteClean:    protocol.MarkSource,
			protocol.RowWriteDirty:    protocol.MarkSource,
			protocol.RowLockDirty:     protocol.MarkSource,
			protocol.RowLockDirtyWait: protocol.MarkSource,
		},
		CacheToCache:        true,
		DistributedState:    "RWLDS",
		DirectoryOrg:        "NID",
		BusInvalidateSignal: true,
		ReadForWrite:        "D",
		AtomicRMW:           true,
		FlushOnTransfer:     "NF,S",
		SourcePolicy:        "LRU,MEM",
		WriteNoFetch:        true,
		EfficientBusyWait:   true,
		HardwareLock:        true,
	}
}

// ProcAccess implements protocol.Protocol.
func (Protocol) ProcAccess(s protocol.State, op protocol.Op) protocol.ProcResult {
	switch op {
	case protocol.OpRead, protocol.OpReadEx:
		// Unshared status is determined dynamically (Feature 5 "D"),
		// so OpReadEx behaves exactly like OpRead here.
		if s == I {
			return protocol.ProcResult{Cmd: bus.Read}
		}
		return protocol.ProcResult{Hit: true, NewState: s}

	case protocol.OpWrite:
		switch s {
		case I:
			return protocol.ProcResult{Cmd: bus.ReadX}
		case R, RSC, RSD:
			// A valid copy exists: request write privilege only, not
			// the block (Figure 5, Feature 4 one-cycle invalidation).
			return protocol.ProcResult{Cmd: bus.Upgrade}
		case WSC, WSD:
			return protocol.ProcResult{Hit: true, NewState: WSD}
		default: // LSD, LSDW: writing while locked stays locked.
			return protocol.ProcResult{Hit: true, NewState: s}
		}

	case protocol.OpLock:
		switch s {
		case I:
			// Locking is concurrent with fetching the block: no extra
			// bus traffic, no processor delay (Figure 6).
			return protocol.ProcResult{Cmd: bus.ReadX, LockIntent: true}
		case R, RSC, RSD:
			return protocol.ProcResult{Cmd: bus.Upgrade, LockIntent: true}
		case WSC, WSD:
			// Zero-time lock: sole access already held.
			return protocol.ProcResult{Hit: true, NewState: LSD}
		default: // LSD, LSDW: recursive lock is a no-op.
			return protocol.ProcResult{Hit: true, NewState: s}
		}

	case protocol.OpUnlock:
		switch s {
		case LSD:
			// Zero-time unlock: the unlock occurs at the final write
			// to the block (Figure 8), no bus access.
			return protocol.ProcResult{Hit: true, NewState: WSD}
		case LSDW:
			// A waiter was recorded: broadcast the unlocking so the
			// busy-wait registers can re-arbitrate (Figures 8, 9).
			return protocol.ProcResult{Cmd: bus.Unlock}
		case WSC, WSD:
			// Unlock without a held lock degenerates to a write (the
			// lock may have been reclaimed from a memory lock tag).
			return protocol.ProcResult{Hit: true, NewState: WSD}
		case R, RSC, RSD:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		default: // I: the locked block was purged; re-fetch to unlock.
			return protocol.ProcResult{Cmd: bus.ReadX}
		}

	case protocol.OpWriteBlock:
		switch s {
		case I:
			// Feature 9: the whole block will be written, so gain
			// write privilege without fetching.
			return protocol.ProcResult{Cmd: bus.WriteNoFetch}
		case R, RSC, RSD:
			return protocol.ProcResult{Cmd: bus.Upgrade}
		case WSC, WSD:
			return protocol.ProcResult{Hit: true, NewState: WSD}
		default: // LSD, LSDW
			return protocol.ProcResult{Hit: true, NewState: s}
		}
	}
	panic(fmt.Sprintf("core: unknown op %v", op))
}

// Complete implements protocol.Protocol.
func (Protocol) Complete(s protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	if t.Lines.Locked {
		// The block is locked elsewhere: the request is denied and
		// the cache initiates busy wait (Figure 7).
		return protocol.CompleteResult{NewState: s, BusyWait: true}
	}
	switch t.Cmd {
	case bus.Read:
		switch {
		case !t.Lines.Hit && !t.Lines.SourceHit:
			// No other cache has the block: assume write privilege so
			// a later write needs no bus access (Figure 1).
			return protocol.CompleteResult{NewState: WSC, Done: true}
		case t.Lines.SourceHit && t.Lines.Dirty:
			// Source transferred with dirty status (Feature 7 "NF,S"):
			// the last fetcher becomes the source (Feature 8 "LRU").
			return protocol.CompleteResult{NewState: RSD, Done: true}
		default:
			// Clean transfer from a source cache, or supplied by
			// memory (Figures 2, 4): requester becomes clean source.
			return protocol.CompleteResult{NewState: RSC, Done: true}
		}
	case bus.ReadX, bus.Upgrade:
		switch op {
		case protocol.OpLock:
			if t.AfterWait {
				// Figure 9: the arbitration winner locks using the
				// lock-waiter state, since other waiters probably
				// remain.
				return protocol.CompleteResult{NewState: LSDW, Done: true}
			}
			return protocol.CompleteResult{NewState: LSD, Done: true}
		case protocol.OpUnlock:
			// Lock-purge reclaim: the block is back with lock
			// privilege; re-run the unlock against it. The engine
			// fixes up LSD vs LSDW from the memory lock tag's waiter
			// bit.
			return protocol.CompleteResult{NewState: LSD, Done: false}
		default:
			return protocol.CompleteResult{NewState: WSD, Done: true}
		}
	case bus.WriteNoFetch:
		return protocol.CompleteResult{NewState: WSD, Done: true}
	case bus.Unlock:
		// The unlock broadcast completes the unlock-write.
		return protocol.CompleteResult{NewState: WSD, Done: true}
	}
	panic(protocol.UnexpectedCmd{Prefix: "core", Cmd: t.Cmd})
}

// Snoop implements protocol.Protocol.
func (Protocol) Snoop(s protocol.State, t *bus.Transaction) protocol.SnoopResult {
	switch t.Cmd {
	case bus.Read:
		switch s {
		case R:
			return protocol.SnoopResult{NewState: R, Hit: true}
		case RSC, WSC:
			// Source provides the block and its clean status; source
			// status moves to the last fetcher (Feature 8 "LRU").
			return protocol.SnoopResult{NewState: R, Hit: true, Supply: true}
		case RSD, WSD:
			// Dirty status transfers with the block, no flush
			// (Feature 7 "NF,S").
			return protocol.SnoopResult{NewState: R, Hit: true, Supply: true, Dirty: true}
		case LSD:
			// Another processor wants the locked block: record the
			// waiter (Figure 7).
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		case LSDW:
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		}

	case bus.ReadX:
		switch s {
		case R:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case RSC, WSC:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true}
		case RSD, WSD:
			return protocol.SnoopResult{NewState: I, Hit: true, Supply: true, Dirty: true}
		case LSD:
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		case LSDW:
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		}

	case bus.Upgrade, bus.WriteNoFetch, bus.WriteWord:
		switch s {
		case R, RSC, WSC:
			return protocol.SnoopResult{NewState: I, Hit: true}
		case RSD, WSD:
			// The requester either holds an identical copy (Upgrade)
			// or will overwrite the whole block (WriteNoFetch); dirty
			// responsibility moves with the privilege.
			return protocol.SnoopResult{NewState: I, Hit: true, Dirty: true}
		case LSD:
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		case LSDW:
			return protocol.SnoopResult{NewState: LSDW, Locked: true}
		}

	case bus.IORead:
		// Non-paging output: supply but keep source status
		// (Section E.2).
		switch s {
		case R:
			return protocol.SnoopResult{NewState: R, Hit: true}
		case RSC, WSC:
			return protocol.SnoopResult{NewState: s, Hit: true, Supply: true}
		case RSD, WSD:
			return protocol.SnoopResult{NewState: s, Hit: true, Supply: true, Dirty: true}
		case LSD, LSDW:
			return protocol.SnoopResult{NewState: s, Locked: true}
		}

	case bus.IOWrite:
		// Input: the I/O processor writes memory; all cached copies
		// invalidate (Section E.2).
		switch s {
		case I:
			return protocol.SnoopResult{NewState: I}
		case LSD, LSDW:
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

// ReclaimedLockState implements protocol.LockReclaimer: when the
// owner re-fetches a block whose lock bit was pushed to memory, the
// line re-enters the lock state, carrying over the recorded-waiter
// bit so the eventual unlock still broadcasts.
func (Protocol) ReclaimedLockState(waiter bool) protocol.State {
	if waiter {
		return LSDW
	}
	return LSD
}

// Evict implements protocol.Protocol.
func (Protocol) Evict(s protocol.State) protocol.Evict {
	switch s {
	case RSD, WSD:
		return protocol.Evict{Writeback: true}
	case LSD:
		// Purging a locked block writes the lock bit to memory
		// (Section E.3, "Two Concerns").
		return protocol.Evict{Writeback: true, LockPurge: true}
	case LSDW:
		return protocol.Evict{Writeback: true, LockPurge: true, Waiter: true}
	}
	return protocol.Evict{}
}

// Privilege implements protocol.Protocol.
func (Protocol) Privilege(s protocol.State) protocol.Priv {
	switch s {
	case R, RSC, RSD:
		return protocol.PrivRead
	case WSC, WSD:
		return protocol.PrivWrite
	case LSD, LSDW:
		return protocol.PrivLock
	}
	return protocol.PrivNone
}

// IsDirty implements protocol.Protocol.
func (Protocol) IsDirty(s protocol.State) bool {
	return s == RSD || s == WSD || s == LSD || s == LSDW
}

// IsSource implements protocol.Protocol.
func (Protocol) IsSource(s protocol.State) bool {
	return s != I && s != R
}
