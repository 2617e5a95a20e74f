package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// longWorkloads builds per-processor loops long enough that a short
// deadline always lands mid-run: every processor hammers a small set
// of shared blocks with reads and writes (ops each, contended).
func longWorkloads(s *System, procs, ops int) []func(*Proc) {
	g := s.Geometry()
	ws := make([]func(*Proc), procs)
	for i := 0; i < procs; i++ {
		i := i
		ws[i] = func(p *Proc) {
			for n := 0; n < ops; n++ {
				a := g.Base(addr.Block((n + i) % 8))
				if (n+i)%3 == 0 {
					p.Write(a, uint64(n))
				} else {
					p.Read(a)
				}
			}
		}
	}
	return ws
}

// blockingPrograms wraps blocking workloads in the adapter System.Run
// uses, so the cancellation tests can hand them a context.
func blockingPrograms(ws []func(*Proc)) []Program {
	progs := make([]Program, len(ws))
	for i, w := range ws {
		progs[i] = &blocking{w: w}
	}
	return progs
}

// requireGoroutines waits for the goroutine count to fall back to
// before: every workload goroutine of the finished runs has unwound.
func requireGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlockingCancelUnwindsWithoutLeaks aborts a long blocking
// simulation mid-run and asserts (a) the error identifies the
// deadline, (b) the abort is prompt, and (c) every workload goroutine
// unwinds — the leak check the daemon's 504 path depends on.
func TestBlockingCancelUnwindsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		s := New(DefaultConfig(protocol.MustNew("bitar")))
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		start := time.Now()
		err := s.RunProgramsContext(ctx, blockingPrograms(longWorkloads(s, 4, 2_000_000)))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: err = %v, want deadline exceeded", i, err)
		}
		// The engine checks ctx before every event, so the abort must
		// land within one event of the deadline; 500ms of wall-clock
		// headroom covers scheduler noise, nothing more.
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("iteration %d: cancellation took %v", i, elapsed)
		}
	}
	requireGoroutines(t, before)
}

// TestBlockingExplicitCancel covers cancellation without a deadline.
func TestBlockingExplicitCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(DefaultConfig(protocol.MustNew("illinois")))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := s.RunProgramsContext(ctx, blockingPrograms(longWorkloads(s, 4, 2_000_000))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	requireGoroutines(t, before)
}

// TestBlockingDeadlockUnwinds: P0 takes the lock and finishes holding
// it while P1 and P2 busy-wait on it forever. The run ends in deadlock
// and both waiters' goroutines, parked mid-LockRead, must unwind.
func TestBlockingDeadlockUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(protocol.MustNew("bitar"))
	cfg.Procs = 3
	s := New(cfg)
	wait := func(p *Proc) {
		p.Compute(100)
		p.LockRead(0)
	}
	err := s.Run([]func(*Proc){func(p *Proc) { p.LockRead(0) }, wait, wait})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	requireGoroutines(t, before)
}

// TestBlockingMaxCyclesUnwinds: a cycle overrun ends the run with
// every workload goroutine still mid-loop; all must unwind.
func TestBlockingMaxCyclesUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(protocol.MustNew("bitar"))
	cfg.MaxCycles = 1000
	s := New(cfg)
	err := s.Run(longWorkloads(s, 4, 2_000_000))
	if err == nil || !strings.Contains(err.Error(), "exceeded 1000 cycles") {
		t.Fatalf("err = %v, want cycle overrun", err)
	}
	requireGoroutines(t, before)
}

// TestBlockingPanicReachesCaller: a panic inside a blocking workload
// is raised again on the caller's goroutine, where a recover sees the
// workload's own panic value, after the other workloads unwound.
func TestBlockingPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(DefaultConfig(protocol.MustNew("bitar")))
	ws := longWorkloads(s, 4, 2_000_000)
	ws[2] = func(p *Proc) {
		p.Write(0, 1)
		p.Compute(50)
		panic("workload bug")
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = s.Run(ws)
		return nil
	}()
	if got != "workload bug" {
		t.Fatalf("recovered %v, want the workload's panic value", got)
	}
	requireGoroutines(t, before)
}

// TestBlockingPanicDuringUnwind: a cycle overrun ends the run with
// every workload mid-loop, and the first workload's deferred cleanup
// panics while it unwinds. That panic is discarded: Run returns the
// cycle error, and the workloads after it unwind too.
func TestBlockingPanicDuringUnwind(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(protocol.MustNew("bitar"))
	cfg.MaxCycles = 1000
	s := New(cfg)
	ws := longWorkloads(s, 4, 2_000_000)
	loop := ws[0]
	ws[0] = func(p *Proc) {
		defer func() { panic("cleanup bug") }()
		loop(p)
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Run panicked with %v, want the cycle error", r)
			}
		}()
		return s.Run(ws)
	}()
	if err == nil || !strings.Contains(err.Error(), "exceeded 1000 cycles") {
		t.Fatalf("err = %v, want cycle overrun", err)
	}
	requireGoroutines(t, before)
}

// TestBlockingGoexitDuringUnwind: a cycle overrun ends the run with
// every workload mid-loop, and the first workload's deferred cleanup
// calls runtime.Goexit while it unwinds. The Goexit ends the goroutine
// that called Run, as one raised mid-run does, but only after the
// workloads after it have unwound too.
func TestBlockingGoexitDuringUnwind(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(protocol.MustNew("bitar"))
	cfg.MaxCycles = 1000
	s := New(cfg)
	ws := longWorkloads(s, 4, 2_000_000)
	loop := ws[0]
	ws[0] = func(p *Proc) {
		defer runtime.Goexit()
		loop(p)
	}
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = s.Run(ws)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a workload called runtime.Goexit")
	}
	if s.Clock() <= 1000 {
		t.Fatalf("clock %d: the run ended before the cycle overrun", s.Clock())
	}
	requireGoroutines(t, before)
}

// TestBlockingGoexit pins what runtime.Goexit in a blocking workload
// (t.FailNow, say) does. It cannot be intercepted, so it also ends the
// goroutine that called Run, once the other workloads have unwound:
// Run does not return.
func TestBlockingGoexit(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(DefaultConfig(protocol.MustNew("bitar")))
	ws := longWorkloads(s, 4, 2_000_000)
	ws[1] = func(p *Proc) {
		p.Write(0, 1)
		runtime.Goexit()
	}
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = s.Run(ws)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a workload called runtime.Goexit")
	}
	if s.Clock() == 0 {
		t.Fatal("the run never advanced")
	}
	requireGoroutines(t, before)
}

// hammerProg is the Program form of longWorkloads' loop body: an
// endless-enough read/write stream over eight contended blocks.
type hammerProg struct {
	g   addr.Geometry
	id  int
	n   int
	ops int
}

func (h *hammerProg) Next(p *Proc, last Result) (Op, bool) {
	if h.n >= h.ops {
		return Op{}, false
	}
	a := h.g.Base(addr.Block((h.n + h.id) % 8))
	n := h.n
	h.n++
	if (n+h.id)%3 == 0 {
		return WriteOp(a, uint64(n)), true
	}
	return ReadOp(a), true
}

// TestRunProgramsContextCancelsPromptly: ctx expiry must abort the
// event loop within one event, and — Programs run inline — without a
// single goroutine to unwind.
func TestRunProgramsContextCancelsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		s := New(DefaultConfig(protocol.MustNew("bitar")))
		progs := make([]Program, 4)
		for id := range progs {
			progs[id] = &hammerProg{g: s.Geometry(), id: id, ops: 2_000_000}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		start := time.Now()
		err := s.RunProgramsContext(ctx, progs)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: err = %v, want deadline exceeded", i, err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("iteration %d: cancellation took %v", i, elapsed)
		}
		if s.Clock() == 0 {
			t.Fatalf("iteration %d: canceled run never advanced", i)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Programs grew goroutines: %d before, %d after", before, after)
	}
}

// TestRunProgramsContextExplicitCancel covers plain cancel() on the
// direct path.
func TestRunProgramsContextExplicitCancel(t *testing.T) {
	s := New(DefaultConfig(protocol.MustNew("illinois")))
	progs := make([]Program, 4)
	for id := range progs {
		progs[id] = &hammerProg{g: s.Geometry(), id: id, ops: 2_000_000}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := s.RunProgramsContext(ctx, progs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBlockingCompletesUncanceled pins that a background context
// changes nothing about a normal blocking run.
func TestBlockingCompletesUncanceled(t *testing.T) {
	s := New(DefaultConfig(protocol.MustNew("bitar")))
	if err := s.RunProgramsContext(context.Background(), blockingPrograms(longWorkloads(s, 4, 200))); err != nil {
		t.Fatal(err)
	}
	if s.Clock() == 0 {
		t.Fatal("simulation did not advance")
	}
}
