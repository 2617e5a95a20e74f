package sim

// blocking adapts a blocking workload — a func(*Proc) calling the
// Proc's blocking methods — to a Program. The function runs on its
// own goroutine, lock-stepped with the engine: Proc.Do sends the op
// on req and parks on res; Next hands the previous op's Result back
// over res and waits on req for the next op. Exactly one side runs at
// a time, so a blocking workload replays the same op stream, and the
// same run, as the equivalent Program.
type blocking struct {
	w        func(*Proc)
	req      chan procOp
	res      chan Result
	finished bool // the goroutine has exited
	panicked bool // ...by a workload panic, whose value is panicVal
	panicVal any
}

// abortRun is the sentinel Do panics with when the run ends before
// the workload does; the goroutine wrapper recovers exactly this type.
type abortRun struct{}

// Next starts the workload goroutine on the first call and otherwise
// resumes it with last; either way it returns the goroutine's next op.
// A workload panic is raised again here, on the engine goroutine, so
// it reaches the caller of System.Run.
func (b *blocking) Next(p *Proc, last Result) (Op, bool) {
	if b.req == nil {
		b.req = make(chan procOp, 1)
		b.res = make(chan Result, 1)
		go b.run(p)
	} else {
		b.res <- last
	}
	op := <-b.req
	if op.kind != opDone {
		return Op{op}, true
	}
	b.finished = true
	if b.panicked {
		panic(b.panicVal)
	}
	return Op{}, false
}

func (b *blocking) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, aborted := r.(abortRun); !aborted {
				b.panicked, b.panicVal = true, r
			}
		}
		b.req <- procOp{kind: opDone}
	}()
	b.w(p)
}

// do is the workload goroutine's half of the lock step.
func (b *blocking) do(op procOp) Result {
	b.req <- op
	r, ok := <-b.res
	if !ok {
		panic(abortRun{})
	}
	return r
}

// abort unwinds a workload goroutine parked in do: closing res makes
// do panic with abortRun, which the wrapper recovers. abort returns
// once the goroutine has exited, discarding any op a workload that
// swallows the sentinel still issues.
func (b *blocking) abort() {
	if b.req == nil || b.finished {
		return
	}
	b.finished = true
	close(b.res)
	for (<-b.req).kind != opDone {
	}
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
