//go:build go1.23

package sim

import "iter"

// blocking adapts a blocking workload — a func(*Proc) calling the
// Proc's blocking methods — to a Program. The function runs as a
// coroutine (iter.Pull) that yields one op per Proc.Do: Next resumes
// it with the previous op's Result and takes its next op, a direct
// switch with no scheduler hand-off. Exactly one side runs at a time,
// so a blocking workload replays the same op stream, and the same
// run, as the equivalent Program. iter.Pull raises a workload panic
// again in Next, on the engine goroutine, so it reaches the caller of
// System.Run.
//
// The file's go1.23 constraint raises its language version for
// iter.Pull above the module's go 1.22 line.
type blocking struct {
	w     func(*Proc)
	next  func() (procOp, bool)
	stop  func()
	yield func(procOp) bool
	last  Result // the Result do hands back to the workload
}

// abortRun is the panic do raises when the run ends before the
// workload does; it unwinds the workload so the coroutine can finish.
type abortRun struct{}

// Next starts the workload on the first call; every call resumes it
// with last and returns its next op.
func (b *blocking) Next(p *Proc, last Result) (Op, bool) {
	if b.next == nil {
		b.next, b.stop = iter.Pull(func(yield func(procOp) bool) {
			b.yield = yield
			b.w(p)
		})
	}
	b.last = last
	op, ok := b.next()
	return Op{op}, ok
}

// do is the workload's half: it yields op to the engine and returns
// that op's Result once Next resumes it.
func (b *blocking) do(op procOp) Result {
	if !b.yield(op) {
		panic(abortRun{})
	}
	return b.last
}

// abort unwinds a workload still parked in do: stop makes its yield
// report false, do panics with abortRun, and stop returns once the
// workload has exited. Any panic that unwinding raises — the abortRun
// itself, or a deferred cleanup that panics — is discarded, because
// the run already has its outcome and the other workloads must unwind
// too. After a finished workload stop does nothing.
func (b *blocking) abort() {
	if b.stop == nil {
		return
	}
	defer func() { _ = recover() }()
	b.stop()
}

// Workloads turns Programs into blocking workloads for System.Run:
// each steps its Program and issues every op through Proc.Do, so the
// run is the one RunPrograms gives the Programs. Nil entries stay nil
// and idle.
func Workloads(progs []Program) []func(*Proc) {
	ws := make([]func(*Proc), len(progs))
	for i, prog := range progs {
		if prog != nil {
			ws[i] = func(p *Proc) {
				var last Result
				for op, ok := prog.Next(p, last); ok; op, ok = prog.Next(p, last) {
					last = p.Do(op)
				}
			}
		}
	}
	return ws
}
