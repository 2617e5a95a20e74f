package sim

import (
	"context"
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
)

// Program is the workload interface the engine runs: a resumable
// state machine the engine steps inline, with no goroutine or channel
// per processor. Next receives the Result of the previously yielded
// Op (a zero Result on the first call) and returns the next Op; a
// false second return value ends the program. Next runs on the engine
// goroutine, so it may freely touch p (counters, ID, Now) but must
// not block.
//
// Any buffer passed to an Op constructor (WriteBlockOp, IOOp) must
// stay untouched until that Op's Result arrives: the program is
// suspended while the engine consumes the buffer, so in-place reuse
// across calls is safe and allocation-free.
//
// Blocking workloads (System.Run) reach the engine as Programs too,
// through an adapter that runs each one as a coroutine the engine
// resumes once per op.
type Program interface {
	Next(p *Proc, last Result) (Op, bool)
}

// Result is the completed outcome of a Program's previous Op.
type Result struct {
	// Value is the datum produced by the operation: the word read
	// (Read/ReadEx/LockRead/LockWait), or the old value (RMW/RMWMemory).
	Value uint64
	// OK is false only for a failed TryWrite (block stolen).
	OK bool
	// Now is the processor's local clock after the operation.
	Now int64
}

// Op is one processor operation yielded by a Program. Construct Ops
// with the package-level *Op constructors; the zero Op is invalid.
type Op struct{ raw procOp }

// InstrFetchOp loads the instruction word at a (class Instr): on a
// tiered machine it is served by the instruction buffer and the lower
// tier rather than the synchronization bus.
func InstrFetchOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpRead, addr: a, class: interconnect.Instr}}
}

// WithClass returns o tagged with routing class c for tiered
// machines. The lock, RMW, and I/O constructors are Sync already; a
// single-tier machine ignores classes entirely.
func (o Op) WithClass(c interconnect.Class) Op {
	o.raw.class = c
	return o
}

// Class returns o's routing class.
func (o Op) Class() interconnect.Class { return o.raw.class }

// IsRef reports whether o references memory (everything except pure
// compute advances).
func (o Op) IsRef() bool { return o.raw.kind != opCompute && o.raw.kind != opDone }

// ReadOp loads the word at a.
func ReadOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpRead, addr: a}}
}

// ReadExOp loads the word at a with the compiler-declared
// read-for-write-privilege instruction (Feature 5 static form).
func ReadExOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpReadEx, addr: a}}
}

// WriteOp stores v at a.
func WriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opMem, op: protocol.OpWrite, addr: a, value: v}}
}

// LockReadOp is the paper's lock operation (Section E.3); the Result
// carries the locked word. Requires a HardwareLock protocol.
func LockReadOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// UnlockWriteOp stores v at a with the unlock line asserted.
func UnlockWriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opMem, op: protocol.OpUnlock, addr: a, value: v, class: interconnect.Sync}}
}

// LockPrefetchOp requests the lock at a and completes immediately
// (Section E.4's ready section); join with LockWaitOp.
func LockPrefetchOp(a addr.Addr) Op {
	return Op{procOp{kind: opLockPrefetch, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// LockWaitOp joins a prefetched lock (plain LockRead without a prior
// prefetch); the Result carries the locked word.
func LockWaitOp(a addr.Addr) Op {
	return Op{procOp{kind: opLockWait, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// RMWOp atomically applies f to the word at a, cache-held (Feature 6
// method 2); the Result carries the old value.
func RMWOp(a addr.Addr, f func(uint64) uint64) Op {
	return Op{procOp{kind: opRMW, addr: a, f: f, class: interconnect.Sync}}
}

// RMWMemoryOp atomically applies f to the word at a while holding the
// memory module (Feature 6 method 1); the Result carries the old value.
func RMWMemoryOp(a addr.Addr, f func(uint64) uint64) Op {
	return Op{procOp{kind: opRMWMem, addr: a, f: f, class: interconnect.Sync}}
}

// TryWriteOp stores v at a only if the block is still cached; the
// Result's OK reports success (Feature 6 method 3).
func TryWriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opTryWrite, addr: a, value: v, class: interconnect.Sync}}
}

// WriteBlockOp overwrites the whole block containing a with vals. The
// engine reads vals until the op completes; see Program for the
// buffer-reuse contract.
func WriteBlockOp(a addr.Addr, vals []uint64) Op {
	return Op{procOp{kind: opBlockWrite, addr: a, vals: vals}}
}

// ComputeOp advances the processor's local clock by n cycles of
// bus-free work. n <= 0 completes in zero time; programs porting
// blocking code should skip the op instead (as Proc.Compute does) to
// keep op streams identical.
func ComputeOp(n int64) Op {
	return Op{procOp{kind: opCompute, value: uint64(n)}}
}

// IOOp issues an I/O-processor transfer against the block containing
// a (Section E.2); vals is the IOInput data.
func IOOp(kind ioKind, a addr.Addr, vals []uint64) Op {
	return Op{procOp{kind: opIO, io: kind, addr: a, vals: vals, class: interconnect.Sync}}
}

// RunPrograms executes one Program per processor; progs[i] runs on
// processor i, nil or missing entries idle. It returns once every
// program has finished, or an error on deadlock, cycle overrun, a
// routing failure, or an op the machine cannot serve (a lock op on a
// protocol without the hardware lock).
func (s *System) RunPrograms(progs []Program) error {
	return s.RunProgramsContext(context.Background(), progs)
}

// RunProgramsContext is RunPrograms with cancellation: ctx expiry is
// checked before every event, so the loop aborts within one event of
// the deadline and returns an error wrapping ctx.Err(). The System is
// abandoned mid-flight and — like any System after a run — must not be
// reused.
func (s *System) RunProgramsContext(ctx context.Context, progs []Program) error {
	if s.started {
		return fmt.Errorf("sim: a System runs exactly once; build a fresh one")
	}
	s.started = true
	// The one abort path: however the run ends — error, cancellation
	// or panic — blocking workloads still parked mid-op unwind here.
	defer s.abort()
	for i, p := range s.Procs {
		p.prog = idle{}
		if i < len(progs) && progs[i] != nil {
			p.prog = progs[i]
		}
		s.respond(p, 0, Result{}) // pulls the first op
	}
	return s.run(ctx)
}

// idle is the Program of a processor without a workload.
type idle struct{}

func (idle) Next(*Proc, Result) (Op, bool) { return Op{}, false }
