package mcheck

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// TestRunHonorsDeadline aborts a deep exploration mid-flight: the run
// must return promptly with an error identifying the deadline, not
// finish the frontier first.
func TestRunHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(Options{
		Protocol: protocol.MustNew("bitar"),
		Procs:    3, Blocks: 2, Words: 2, Depth: 10, Workers: 2,
		Context: ctx,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The full p3 b2 d10 space takes far longer than this; a prompt
	// abort stays within a generous multiple of the 30ms budget.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — workers did not poll the context", elapsed)
	}
}

// TestRunHonorsCancel covers explicit cancellation (the Ctrl-C path).
func TestRunHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Run(Options{
		Protocol: protocol.MustNew("bitar"),
		Procs:    3, Blocks: 2, Words: 2, Depth: 10, Workers: 4,
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunNilContextUnchanged pins that omitting Context leaves the
// exploration untouched (the pre-existing API contract).
func TestRunNilContextUnchanged(t *testing.T) {
	res, err := Run(Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 1, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil || res.DepthReached != 4 || res.States < 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestProgressReportsEveryLevel asserts the per-level callback fires
// in depth order with monotone counts that end at the final totals.
func TestProgressReportsEveryLevel(t *testing.T) {
	type tick struct {
		depth  int
		states int64
		trans  int64
	}
	var ticks []tick
	res, err := Run(Options{
		Protocol: protocol.MustNew("bitar"),
		Procs:    2, Blocks: 1, Depth: 5, Workers: 2,
		Progress: func(p ProgressInfo) {
			ticks = append(ticks, tick{p.Depth, p.States, p.Transitions})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != res.DepthReached {
		t.Fatalf("progress fired %d times, want one per level (%d)", len(ticks), res.DepthReached)
	}
	for i, tk := range ticks {
		if tk.depth != i+1 {
			t.Fatalf("tick %d reports depth %d", i, tk.depth)
		}
		if i > 0 && (tk.states < ticks[i-1].states || tk.trans < ticks[i-1].trans) {
			t.Fatalf("progress counts regressed at level %d: %+v -> %+v", tk.depth, ticks[i-1], tk)
		}
	}
	last := ticks[len(ticks)-1]
	if last.states != res.States || last.trans != res.Transitions {
		t.Fatalf("final tick %+v != result totals states=%d transitions=%d", last, res.States, res.Transitions)
	}
}

// TestShardedHonorsCancel holds RunSharded to Run's cancellation
// contract: the coordinator polls the context every level and each
// in-process session every frontier state, and the run fails with the
// same wrapped error Run returns.
func TestShardedHonorsCancel(t *testing.T) {
	sessions := func(o Options, n int) []ShardPeer {
		peers := make([]ShardPeer, n)
		for i := range peers {
			s, err := NewShardSession(o, i, n)
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = s
		}
		return peers
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 1, Depth: 6, Workers: 1, Context: ctx}
	_, want := Run(o)
	if !errors.Is(want, context.Canceled) {
		t.Fatalf("Run: err = %v, want context.Canceled", want)
	}
	res, err := RunSharded(o, sessions(o, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSharded: err = %v (result %+v), want context.Canceled", err, res)
	}
	if err.Error() != want.Error() {
		t.Fatalf("RunSharded error %q, Run's %q", err, want)
	}

	// A session whose context is gone stops expanding and says why.
	s := sessions(o, 1)[0]
	if _, err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Expand(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Expand under a canceled context: err = %v, want context.Canceled", err)
	}

	// Canceled mid-run, from the level-2 progress callback, over
	// sessions with two workers each: the next level aborts.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	mo := o
	mo.Context, mo.Workers = ctx, 2
	mo.Progress = func(p ProgressInfo) {
		if p.Depth == 2 {
			cancel()
		}
	}
	if _, err := RunSharded(mo, sessions(mo, 3)); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "at depth 3") {
		t.Fatalf("RunSharded canceled after level 2: err = %v, want context.Canceled at depth 3", err)
	}
}
