// Package syncprim builds busy-wait synchronization primitives on top
// of the simulated machines, lowering lock operations to whatever the
// protocol supports:
//
//   - the paper's cache-state lock (Section E.3) when the protocol
//     implements it (zero-time lock/unlock, busy-wait register, no bus
//     retries);
//   - test-and-set or test-and-test-and-set spinning built from atomic
//     read-modify-write for the other protocols ("a waiter loops on a
//     one in its cache", Censier-Feautrier, Section E.4).
//
// It also exposes the four atomic read-modify-write implementation
// methods of Feature 6 so they can be compared head-to-head.
package syncprim

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
)

// Scheme selects a busy-wait locking implementation.
type Scheme int

const (
	// CacheLock is the paper's proposal: the lock rides on the cache
	// state; waiting uses the busy-wait register (Sections E.3, E.4).
	CacheLock Scheme = iota
	// TAS is a raw test-and-set spin: every attempt is an atomic
	// read-modify-write on the bus.
	TAS
	// TTAS is test-and-test-and-set: waiters spin on their cached
	// copy and attempt the test-and-set only when they observe zero.
	TTAS
	// TASMemory is a test-and-set spin whose atomic operation holds
	// the memory module (Feature 6 method 1); for write-through
	// systems with no cache-based atomicity.
	TASMemory
)

var schemeNames = [...]string{"cachelock", "tas", "ttas", "tasmemory"}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// SchemeFor returns the best-native locking scheme for a protocol:
// the cache lock when available, memory-held test-and-set for classic
// write-through, and test-and-test-and-set otherwise.
func SchemeFor(p protocol.Protocol) Scheme {
	f := p.Features()
	switch {
	case f.HardwareLock:
		return CacheLock
	case f.Policy == protocol.PolicyWriteThrough:
		return TASMemory
	default:
		return TTAS
	}
}

// spinPause is the local work a waiter performs between spin checks,
// in cycles. Keeping it small models a tight test loop.
const spinPause = 2

func tas(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// Acquire obtains the busy-wait lock at a using the given scheme. It
// blocks (in simulated time) until the lock is held, driving a
// LockAcquire one op at a time.
func Acquire(p *sim.Proc, s Scheme, a addr.Addr) {
	var l LockAcquire
	for op, done := l.Start(s, a), false; !done; {
		op, done = l.Step(p, p.Do(op))
	}
}

// Release frees the busy-wait lock at a.
func Release(p *sim.Proc, s Scheme, a addr.Addr) {
	p.Do(StartRelease(s, a))
	FinishRelease(p)
}

// RMWMethod selects one of the four atomic read-modify-write
// implementations of Section F.3, Feature 6.
type RMWMethod int

const (
	// MethodMemoryHold holds the main memory module throughout the
	// operation (Rudolph-Segall).
	MethodMemoryHold RMWMethod = iota
	// MethodCacheHold fetches the block with write privilege and holds
	// the cache (Frank; the Papamarcos-Patel bus-held variant).
	MethodCacheHold
	// MethodOptimistic defers the privilege upgrade to the write and
	// aborts-and-retries when the block was stolen in between.
	MethodOptimistic
	// MethodLockState uses the paper's cache lock state to lock just
	// the target atom (Section E.3).
	MethodLockState
)

var methodNames = [...]string{"memory-hold", "cache-hold", "optimistic", "lock-state"}

// String implements fmt.Stringer.
func (m RMWMethod) String() string {
	if int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// AtomicApply runs f atomically on the word at a using the chosen
// method and returns the old value.
//
// MethodOptimistic relies on invalidation to detect interference, so
// it must not be used with update-based protocols (Dragon, Firefly,
// Rudolph-Segall in write-through mode); MethodLockState requires a
// protocol with the hardware lock.
func AtomicApply(p *sim.Proc, m RMWMethod, a addr.Addr, f func(uint64) uint64) uint64 {
	switch m {
	case MethodMemoryHold:
		return p.RMWMemory(a, f)
	case MethodCacheHold:
		return p.RMW(a, f)
	case MethodOptimistic:
		for {
			v := p.ReadClass(a, interconnect.Sync)
			if p.TryWrite(a, f(v)) {
				return v
			}
			p.Counts.Inc("sync.optimistic-retry")
		}
	case MethodLockState:
		v := p.LockRead(a)
		p.UnlockWrite(a, f(v))
		return v
	}
	panic(fmt.Sprintf("syncprim: unknown RMW method %v", m))
}

// AtomicAdd atomically adds delta to the word at a and returns the
// old value.
func AtomicAdd(p *sim.Proc, m RMWMethod, a addr.Addr, delta uint64) uint64 {
	return AtomicApply(p, m, a, func(v uint64) uint64 { return v + delta })
}

// Barrier is a sense-reversing busy-wait barrier built on the
// simulated memory: a counter word protected by a busy-wait lock and
// a sense word the waiters spin on in their caches — the structure a
// runtime would build from the paper's primitives.
type Barrier struct {
	n      int
	scheme Scheme
	lock   addr.Addr // its own block (the hard atom)
	count  addr.Addr // counter word
	sense  addr.Addr // generation word, spun on in-cache
}

// NewBarrier lays out a barrier for n participants. lock must start a
// dedicated block; state must point at a block with two free words
// (count at state, sense at state+1), distinct from the lock block.
func NewBarrier(n int, scheme Scheme, lock, state addr.Addr) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("syncprim: barrier of %d", n))
	}
	return &Barrier{n: n, scheme: scheme, lock: lock, count: state, sense: state + 1}
}

// Wait blocks (in simulated time) until all n participants arrive.
func (b *Barrier) Wait(p *sim.Proc) {
	gen := p.ReadClass(b.sense, interconnect.Sync)
	Acquire(p, b.scheme, b.lock)
	arrived := p.ReadClass(b.count, interconnect.Sync) + 1
	if int(arrived) == b.n {
		// Last arrival: reset the count and flip the sense,
		// releasing everyone spinning on it.
		p.WriteClass(b.count, 0, interconnect.Sync)
		p.WriteClass(b.sense, gen+1, interconnect.Sync)
		Release(p, b.scheme, b.lock)
		p.Counts.Inc("sync.barrier")
		return
	}
	p.WriteClass(b.count, arrived, interconnect.Sync)
	Release(p, b.scheme, b.lock)
	for p.ReadClass(b.sense, interconnect.Sync) == gen {
		p.Compute(spinPause)
	}
	p.Counts.Inc("sync.barrier")
}

// RWLock is a busy-wait readers-writer lock: Section C.1's two logical
// facets made concrete — atomicity (sole access for writers) and
// concurrency (shared access for readers) — built from a guard lock
// and a reader count in the guarded atom's block.
type RWLock struct {
	scheme Scheme
	guard  addr.Addr // the hard atom (its own block)
	count  addr.Addr // reader count word
}

// NewRWLock lays out a readers-writer lock: guard must start a
// dedicated block; count must be a word on a different block.
func NewRWLock(scheme Scheme, guard, count addr.Addr) *RWLock {
	return &RWLock{scheme: scheme, guard: guard, count: count}
}

// RLock acquires shared access: the guard excludes writers while the
// reader registers; the count itself is maintained with atomic
// read-modify-writes so releases never need the guard.
func (l *RWLock) RLock(p *sim.Proc) {
	Acquire(p, l.scheme, l.guard)
	p.RMW(l.count, func(v uint64) uint64 { return v + 1 })
	Release(p, l.scheme, l.guard)
	p.Counts.Inc("sync.rlock")
}

// RUnlock releases shared access (guard-free, so a writer spinning on
// the count while holding the guard cannot deadlock the readers).
func (l *RWLock) RUnlock(p *sim.Proc) {
	p.RMW(l.count, func(v uint64) uint64 { return v - 1 })
}

// Lock acquires sole access: it holds the guard and waits for the
// readers to drain (writer-preference is not implemented; the guard
// serializes competing writers).
func (l *RWLock) Lock(p *sim.Proc) {
	Acquire(p, l.scheme, l.guard)
	for p.ReadClass(l.count, interconnect.Sync) != 0 {
		p.Compute(spinPause)
	}
	p.Counts.Inc("sync.wlock")
}

// Unlock releases sole access.
func (l *RWLock) Unlock(p *sim.Proc) {
	Release(p, l.scheme, l.guard)
}
