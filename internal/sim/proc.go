package sim

import (
	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
	"cachesync/internal/stats"
)

// opKind distinguishes the primitive operations a processor can issue
// to the engine.
type opKind uint8

const (
	opMem          opKind = iota // a protocol.Op against the cache
	opCompute                    // local work for N cycles, no memory traffic
	opRMW                        // atomic read-modify-write, cache-held (Feature 6 method 2)
	opRMWMem                     // atomic read-modify-write held at memory (method 1)
	opTryWrite                   // write that fails if the block was stolen (method 3)
	opBlockWrite                 // whole-block write (Feature 9 when supported)
	opIO                         // I/O processor transfer (Section E.2)
	opLockPrefetch               // request a lock but keep working (Section E.4)
	opLockWait                   // join a previously prefetched lock
	opDone                       // workload finished
)

// ioKind selects the I/O operation for opIO.
type ioKind uint8

const (
	// IOInput writes a block to memory, invalidating cached copies.
	IOInput ioKind = iota
	// IOPageOut fetches a block with write privilege (invalidating).
	IOPageOut
	// IOOutput reads a block without disturbing source status.
	IOOutput
)

// procOp is one processor operation as the engine sees it. It is
// copied on every simulated operation (Program.Next returns it by
// value), so it is kept narrow: opCompute's cycle count shares the
// value field, and the block-write progress index is 32-bit.
type procOp struct {
	kind  opKind
	op    protocol.Op
	io    ioKind
	class interconnect.Class // routing class on a tiered machine
	idx   int32              // progress index of a lowered block write
	addr  addr.Addr
	value uint64   // written word, or opCompute cycles
	vals  []uint64 // opBlockWrite
	f     func(uint64) uint64
}

// locks reports whether the op uses the hardware lock (Section E.3).
func (o *procOp) locks() bool {
	switch o.kind {
	case opLockPrefetch, opLockWait:
		return true
	case opMem:
		return o.op == protocol.OpLock || o.op == protocol.OpUnlock
	}
	return false
}

// procStatus tracks where a processor is in the engine's event loop.
type procStatus uint8

const (
	statusReady   procStatus = iota // has a pending op, scheduled in the ready queue
	statusBlocked                   // op in flight on the bus
	statusWaiting                   // parked in busy wait
	statusDone
)

// Proc is the processor-side handle a workload runs against. The
// engine pulls each processor's ops from its Program inline. A
// blocking workload (System.Run) instead calls the blocking methods
// below, each a one-liner over Do.
type Proc struct {
	id int

	prog Program // the workload; an idle Program when none was given

	// engine-side state
	status  procStatus
	pending procOp
	now     int64
	opStart int64 // issue time of the in-flight op (latency stats)

	// plock is the state of a prefetched lock (Section E.4: "a
	// processor can work while waiting if it requests the lock when
	// ready but still has work to do").
	plock struct {
		armed    bool // a prefetch is outstanding or acquired
		acquired bool
		waiting  bool // the processor blocked in LockWait
		addr     addr.Addr
		value    uint64
	}

	Counts stats.Counters
}

// ID returns the processor's index.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local view of the simulation clock, in
// cycles, as of its last completed operation.
func (p *Proc) Now() int64 { return p.now }

// Do issues op and blocks until it completes. It is the one primitive
// under every blocking method and works only inside a blocking
// workload started by System.Run; a Program yields its ops from Next
// instead.
func (p *Proc) Do(op Op) Result {
	b, ok := p.prog.(*blocking)
	if !ok {
		panic("sim: Proc.Do outside a blocking workload (System.Run)")
	}
	return b.do(op.raw)
}

// Read loads the word at a.
func (p *Proc) Read(a addr.Addr) uint64 { return p.Do(ReadOp(a)).Value }

// ReadEx loads the word at a with the compiler-declared
// read-for-write-privilege instruction (Feature 5 static form). Under
// protocols without it, it behaves as Read.
func (p *Proc) ReadEx(a addr.Addr) uint64 { return p.Do(ReadExOp(a)).Value }

// Write stores v at a.
func (p *Proc) Write(a addr.Addr, v uint64) { p.Do(WriteOp(a, v)) }

// ReadClass is Read tagged with a routing class for tiered machines;
// on a single-tier machine the class is inert.
func (p *Proc) ReadClass(a addr.Addr, c interconnect.Class) uint64 {
	return p.Do(ReadOp(a).WithClass(c)).Value
}

// WriteClass is Write tagged with a routing class.
func (p *Proc) WriteClass(a addr.Addr, v uint64, c interconnect.Class) {
	p.Do(WriteOp(a, v).WithClass(c))
}

// InstrFetch loads the instruction word at a (class Instr): on a
// tiered machine it is served by the instruction buffer and the lower
// tier rather than the synchronization bus.
func (p *Proc) InstrFetch(a addr.Addr) uint64 { return p.Do(InstrFetchOp(a)).Value }

// LockRead performs the paper's lock operation (Section E.3): a read
// of the word at a with the processor lock line asserted. It blocks —
// busy-waiting via the busy-wait register, with no bus retries —
// until the lock is acquired, and returns the word's value. On a
// protocol without HardwareLock the run fails with an error.
func (p *Proc) LockRead(a addr.Addr) uint64 { return p.Do(LockReadOp(a)).Value }

// UnlockWrite performs the paper's unlock operation: a store of v at
// a with the unlock line asserted (Figure 8).
func (p *Proc) UnlockWrite(a addr.Addr, v uint64) { p.Do(UnlockWriteOp(a, v)) }

// LockPrefetch requests the lock at a and returns immediately so the
// processor can keep working — the paper's "ready section" (Section
// E.4): the busy-wait register waits while the processor computes.
// Follow with LockWait to join the lock. A second prefetch while one
// is outstanding is a no-op.
func (p *Proc) LockPrefetch(a addr.Addr) { p.Do(LockPrefetchOp(a)) }

// LockWait blocks until the lock requested by LockPrefetch is held
// and returns the locked word. Without a prior prefetch it behaves as
// LockRead.
func (p *Proc) LockWait(a addr.Addr) uint64 { return p.Do(LockWaitOp(a)).Value }

// RMW atomically applies f to the word at a and returns the old
// value. The block is fetched with write privilege and the cache held
// for the duration (Feature 6, method 2).
func (p *Proc) RMW(a addr.Addr, f func(uint64) uint64) uint64 { return p.Do(RMWOp(a, f)).Value }

// RMWMemory atomically applies f to the word at a while holding the
// memory module (Feature 6, method 1: Rudolph-Segall). The caches are
// bypassed; cached copies are invalidated or updated by the write
// broadcast.
func (p *Proc) RMWMemory(a addr.Addr, f func(uint64) uint64) uint64 {
	return p.Do(RMWMemoryOp(a, f)).Value
}

// TryWrite stores v at a only if the cache still holds the block; it
// reports success. It is the abort-on-steal write of Feature 6's
// method 3: a miss means the block was stolen between the read and
// the write, and the instruction must be aborted and retried.
func (p *Proc) TryWrite(a addr.Addr, v uint64) bool { return p.Do(TryWriteOp(a, v)).OK }

// WriteBlock overwrites the whole block containing a with vals
// (len == block words). Protocols with Feature 9 skip the fetch.
func (p *Proc) WriteBlock(a addr.Addr, vals []uint64) { p.Do(WriteBlockOp(a, vals)) }

// Compute advances the processor's local clock by n cycles of
// bus-free work; n <= 0 issues nothing.
func (p *Proc) Compute(n int64) {
	if n > 0 {
		p.Do(ComputeOp(n))
	}
}

// IO issues an I/O-processor transfer against the block containing a
// (Section E.2). The data for IOInput is vals.
func (p *Proc) IO(kind ioKind, a addr.Addr, vals []uint64) { p.Do(IOOp(kind, a, vals)) }
