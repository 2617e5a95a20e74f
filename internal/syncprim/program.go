package syncprim

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
)

// This file holds the one lock-acquire algorithm: resumable
// sub-state-machines that yield a scheme's acquire and release ops one
// at a time. Program workloads embed them; the blocking Acquire and
// Release drive them through Proc.Do.

// LockAcquire is a resumable busy-wait lock acquisition. Start arms it
// and returns the first op of the acquire sequence; feed each Result
// to Step until done. A LockAcquire is reusable: Start re-arms it for
// the next acquisition.
type LockAcquire struct {
	scheme Scheme
	addr   addr.Addr
	phase  acqPhase
}

// acqPhase names the op currently in flight for a LockAcquire.
type acqPhase uint8

const (
	acqIdle      acqPhase = iota
	acqLockRead           // CacheLock: the LockRead
	acqRMW                // TAS/TTAS/TASMemory: the test-and-set
	acqPause              // TAS/TASMemory: the pause between attempts
	acqRead               // TTAS: the in-cache read of the lock word
	acqReadPause          // TTAS: the pause between in-cache reads
)

// Start arms the acquire of the lock at a and returns its first
// operation.
func (l *LockAcquire) Start(s Scheme, a addr.Addr) sim.Op {
	l.scheme, l.addr = s, a
	switch s {
	case CacheLock:
		l.phase = acqLockRead
		return sim.LockReadOp(a)
	case TAS, TTAS:
		l.phase = acqRMW
		return sim.RMWOp(a, tas)
	case TASMemory:
		l.phase = acqRMW
		return sim.RMWMemoryOp(a, tas)
	}
	panic(fmt.Sprintf("syncprim: unknown scheme %v", l.scheme))
}

func (l *LockAcquire) rmwOp() sim.Op {
	if l.scheme == TASMemory {
		return sim.RMWMemoryOp(l.addr, tas)
	}
	return sim.RMWOp(l.addr, tas)
}

// Step consumes the Result of the previously returned op. done=true
// reports the lock held (op is then invalid); otherwise op is the next
// operation of the sequence.
func (l *LockAcquire) Step(p *sim.Proc, last sim.Result) (op sim.Op, done bool) {
	switch l.phase {
	case acqLockRead:
		// Zero-retry hardware lock: one op, however long it waited.
		l.phase = acqIdle
		p.Counts.Inc("sync.acquire")
		return sim.Op{}, true
	case acqRMW:
		if last.Value == 0 {
			l.phase = acqIdle
			p.Counts.Inc("sync.acquire")
			return sim.Op{}, true
		}
		p.Counts.Inc("sync.tas-retry")
		if l.scheme == TTAS {
			// Loop on the copy in the cache until the holder's
			// release invalidates (or updates) it.
			l.phase = acqRead
			return sim.ReadOp(l.addr).WithClass(interconnect.Sync), false
		}
		l.phase = acqPause
		return sim.ComputeOp(spinPause), false
	case acqPause:
		l.phase = acqRMW
		return l.rmwOp(), false
	case acqRead:
		if last.Value != 0 {
			l.phase = acqReadPause
			return sim.ComputeOp(spinPause), false
		}
		l.phase = acqRMW
		return l.rmwOp(), false
	case acqReadPause:
		l.phase = acqRead
		return sim.ReadOp(l.addr).WithClass(interconnect.Sync), false
	}
	panic("syncprim: LockAcquire.Step without Start")
}

// StartRelease returns the single op that frees the busy-wait lock at
// a; call FinishRelease when its Result arrives.
func StartRelease(s Scheme, a addr.Addr) sim.Op {
	if s == CacheLock {
		return sim.UnlockWriteOp(a, 0)
	}
	return sim.WriteOp(a, 0).WithClass(interconnect.Sync)
}

// FinishRelease records a completed release.
func FinishRelease(p *sim.Proc) { p.Counts.Inc("sync.release") }
