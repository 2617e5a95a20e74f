package protocol_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cachesync/internal/bus"
	"cachesync/internal/golden"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
)

// TestTableCompilesAllProtocols pins the guarantee the perf work rests
// on: every registered protocol fits the dense tables. A protocol that
// stops compiling would silently fall back to the (slow) method path.
func TestTableCompilesAllProtocols(t *testing.T) {
	for _, name := range all.Everything {
		p := protocol.MustNew(name)
		tab, err := protocol.Compile(p)
		if err != nil {
			t.Errorf("%s: does not compile: %v", name, err)
			continue
		}
		if got := protocol.TableFor(p); got == nil {
			t.Errorf("%s: TableFor returned nil for the registered implementation", name)
		}
		if len(tab.ValidStatesForTest()) == 0 {
			t.Errorf("%s: no reachable states", name)
		}
	}
}

// call captures a result or a panic, so table and method outcomes can
// be compared even on cells the implementation rejects.
func call(f func() any) (res any, panicked any) {
	defer func() { panicked = recover() }()
	return f(), nil
}

// TestTableMatchesMethodsExhaustive sweeps the full (state × event)
// space — including states beyond the compiled range and panic cells —
// and asserts the table-driven hooks agree with the methods on every
// outcome, result and panic alike.
func TestTableMatchesMethodsExhaustive(t *testing.T) {
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			p := protocol.MustNew(name)
			tab := protocol.TableFor(p)
			if tab == nil {
				t.Fatalf("no table")
			}
			// Two states past the compiled range exercise the fallback.
			maxS := protocol.State(tab.NumStates() + 2)
			for s := protocol.State(0); s <= maxS; s++ {
				s := s
				wantEv, evPanic := call(func() any { return p.Evict(s) })
				gotEv, gotEvPanic := call(func() any { return tab.Evict(s) })
				if fmt.Sprint(wantEv, evPanic) != fmt.Sprint(gotEv, gotEvPanic) {
					t.Errorf("Evict(%d): table %v/%v, method %v/%v", s, gotEv, gotEvPanic, wantEv, evPanic)
				}
				if tab.Privilege(s) != p.Privilege(s) || tab.IsDirty(s) != p.IsDirty(s) || tab.IsSource(s) != p.IsSource(s) {
					t.Errorf("per-state hooks diverge at state %d", s)
				}
				for op := protocol.Op(0); int(op) < protocol.NumOpsForTest; op++ {
					op := op
					want, wantP := call(func() any { return p.ProcAccess(s, op) })
					got, gotP := call(func() any { return tab.ProcAccess(s, op) })
					if fmt.Sprint(want, wantP) != fmt.Sprint(got, gotP) {
						t.Errorf("ProcAccess(%d,%s): table %v/%v, method %v/%v", s, op, got, gotP, want, wantP)
					}
					for cmd := bus.Cmd(0); int(cmd) < protocol.NumCmdsForTest; cmd++ {
						for flags := 0; flags < protocol.NumCompleteFlagsForTest; flags++ {
							mt := protocol.KeyTxnForTest(cmd, flags)
							tt := protocol.KeyTxnForTest(cmd, flags)
							want, wantP := call(func() any { return p.Complete(s, op, &mt) })
							got, gotP := call(func() any { return tab.Complete(s, op, &tt) })
							if fmt.Sprint(want, wantP != nil) != fmt.Sprint(got, gotP != nil) {
								t.Fatalf("Complete(%d,%s,%s,%#x): table %v/%v, method %v/%v",
									s, op, cmd, flags, got, gotP, want, wantP)
							}
						}
					}
				}
				for cmd := bus.Cmd(0); int(cmd) < protocol.NumCmdsForTest; cmd++ {
					mt := bus.Transaction{Cmd: cmd}
					tt := bus.Transaction{Cmd: cmd}
					want, wantP := call(func() any { return p.Snoop(s, &mt) })
					got, gotP := call(func() any { return tab.Snoop(s, &tt) })
					if fmt.Sprint(want, wantP != nil) != fmt.Sprint(got, gotP != nil) {
						t.Errorf("Snoop(%d,%s): table %v/%v, method %v/%v", s, cmd, got, gotP, want, wantP)
					}
					// Noisy non-key fields must not change the table result
					// (the compile-time probe guarantees the method agrees).
					noisy := protocol.SnoopNoisyTxnForTest(cmd)
					noisy.Lines = bus.Lines{}
					noisy.AfterWait = false
					gotN, gotNP := call(func() any { return tab.Snoop(s, &noisy) })
					if fmt.Sprint(got, gotP != nil) != fmt.Sprint(gotN, gotNP != nil) {
						t.Errorf("Snoop(%d,%s): noisy fields changed the result: %v vs %v", s, cmd, got, gotN)
					}
				}
			}
		})
	}
}

// TestTableCellsRoundTripEncodeDecode asserts every compiled cell of
// every protocol survives the packed fixed-width encode/decode.
func TestTableCellsRoundTripEncodeDecode(t *testing.T) {
	for _, name := range all.Everything {
		tab := protocol.TableFor(protocol.MustNew(name))
		if tab == nil {
			t.Fatalf("%s: no table", name)
		}
		if err := tab.RoundTripAllCellsForTest(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTableLookupsDoNotAllocate pins the hot-path contract of the
// compiled tables: a steady-state lookup on any hook is a plain array
// load, never an allocation.
func TestTableLookupsDoNotAllocate(t *testing.T) {
	tab := protocol.TableFor(protocol.MustNew("bitar"))
	if tab == nil {
		t.Fatal("no table for bitar")
	}
	txn := &bus.Transaction{Cmd: bus.Read, Lines: bus.Lines{Hit: true}}
	var sink protocol.Evict
	if n := testing.AllocsPerRun(200, func() {
		r := tab.ProcAccess(protocol.Invalid, protocol.OpRead)
		s := tab.Snoop(r.NewState, txn)
		c := tab.Complete(s.NewState, protocol.OpRead, txn)
		sink = tab.Evict(c.NewState)
		_ = tab.IsDirty(c.NewState)
	}); n != 0 {
		t.Fatalf("table lookups allocate %.1f times per iteration", n)
	}
	_ = sink
}

// TestPackRoundTripSynthetic round-trips synthetic cells over the full
// encodable ranges, beyond what any one protocol reaches.
func TestPackRoundTripSynthetic(t *testing.T) {
	bools := []bool{false, true}
	for _, ns := range []protocol.State{0, 1, 7, 63, 255} {
		for _, hit := range bools {
			for cmd := bus.Cmd(0); int(cmd) < protocol.NumCmdsForTest; cmd++ {
				for _, li := range bools {
					for _, mu := range bools {
						for _, done := range bools {
							for _, bw := range bools {
								for _, ok := range bools {
									err := protocol.PackRoundTripForTest(
										protocol.ProcResult{Hit: hit, NewState: ns, Cmd: cmd, LockIntent: li, MemUpdate: mu},
										protocol.CompleteResult{NewState: ns, Done: done, BusyWait: bw}, ok,
										protocol.SnoopResult{NewState: ns, Hit: hit, Locked: li, Supply: mu, Dirty: done, Flush: bw, UpdateWord: li, TakeWord: mu}, ok,
										protocol.Evict{Writeback: hit, LockPurge: li, Waiter: mu},
										protocol.Priv(int(cmd)%4), done, bw)
									if err != nil {
										t.Fatal(err)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// wrapped is a protocol wrapper that keeps the registered name but is
// not the registered implementation — the shape of a model-checker
// mutant. TableFor must refuse it.
type wrapped struct{ protocol.Protocol }

func TestTableForRejectsWrappers(t *testing.T) {
	p := protocol.MustNew("bitar")
	if tab := protocol.TableFor(wrapped{p}); tab != nil {
		t.Fatalf("TableFor accepted a wrapper type")
	}
	if tab := protocol.TableFor(p); tab == nil {
		t.Fatalf("TableFor rejected the registered implementation")
	}
}

// TestTableForConcurrent hammers the memoizing lookup from many
// goroutines; the returned table must be one shared instance.
func TestTableForConcurrent(t *testing.T) {
	p := protocol.MustNew("illinois")
	want := protocol.TableFor(p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got := protocol.TableFor(protocol.MustNew("illinois")); got != want {
					t.Error("TableFor returned a different instance")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGoldenTextsDeterministic pins that golden generation is a pure
// function — TestTransitionGoldens depends on it.
func TestGoldenTextsDeterministic(t *testing.T) {
	a, b := protocol.GoldenTexts(), protocol.GoldenTexts()
	if len(a) != len(all.Everything) {
		t.Fatalf("GoldenTexts covers %d protocols, want %d", len(a), len(all.Everything))
	}
	for name, text := range a {
		if b[name] != text {
			t.Errorf("%s: golden text not deterministic", name)
		}
		if text == "" {
			t.Errorf("%s: empty golden text", name)
		}
	}
}

// TestTransitionGoldens is the freshness gate of the compiled tables:
// every registered protocol's table must match its committed golden
// under goldens/, and a golden left for an unregistered protocol fails
// too, so a protocol edit cannot land without its regenerated table.
// Regenerate with go generate ./internal/protocol.
func TestTransitionGoldens(t *testing.T) {
	texts := protocol.GoldenTexts()
	for _, name := range protocol.Names() {
		golden.Check(t, filepath.Join("goldens", name+".txt"), texts[name])
	}
	entries, err := os.ReadDir("goldens")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".txt"); !ok || texts[name] == "" {
			t.Errorf("goldens/%s: stray golden for an unregistered protocol; delete it", e.Name())
		}
	}
}
