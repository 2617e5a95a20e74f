package protocol_test

import (
	"errors"
	"fmt"
	"testing"

	"cachesync/internal/bus"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
)

// panicPrefix is the message prefix of a protocol's Complete panics:
// the implementing package's name.
func panicPrefix(name string) string {
	if name == "bitar" || name == "bitar-memsrc" {
		return "core"
	}
	return name
}

// TestCompletePanicText pins the panic of every Complete cell a
// compiled table leaves to the method: an UnexpectedCmd whose text is
// "<prefix>: Complete with unexpected cmd <cmd>", as it was when the
// implementations panicked with a formatted string.
func TestCompletePanicText(t *testing.T) {
	total := 0
	for _, name := range all.Everything {
		p := protocol.MustNew(name)
		tab := protocol.TableFor(p)
		if tab == nil {
			t.Fatalf("%s: no table", name)
		}
		for _, s := range tab.ValidStatesForTest() {
			for op := protocol.Op(0); int(op) < protocol.NumOpsForTest; op++ {
				for cmd := bus.Cmd(0); int(cmd) < protocol.NumCmdsForTest; cmd++ {
					for flags := 0; flags < protocol.NumCompleteFlagsForTest; flags++ {
						txn := protocol.KeyTxnForTest(cmd, flags)
						_, v := call(func() any { return tab.Complete(s, op, &txn) })
						if v == nil {
							continue
						}
						total++
						want := fmt.Sprintf("%s: Complete with unexpected cmd %v", panicPrefix(name), cmd)
						if got := fmt.Sprintf("%v", v); got != want {
							t.Fatalf("%s: Complete(%d, %s, %s/flags=%#x) panicked with %q, want %q",
								name, s, op, cmd, flags, got, want)
						}
						var uc protocol.UnexpectedCmd
						if err, ok := v.(error); !ok || !errors.As(err, &uc) {
							t.Fatalf("%s: Complete(%d, %s, %s/flags=%#x) panicked with %T, want protocol.UnexpectedCmd",
								name, s, op, cmd, flags, v)
						}
					}
				}
			}
		}
	}
	// 61 reachable states × 6 ops × 11 commands × 32 flag patterns give
	// 128,832 cells over the registered protocols; this many reject.
	if total != 74496 {
		t.Errorf("%d Complete cells are left to the method, want 74496", total)
	}
}

// compileAllocBudget bounds the heap allocations of one Compile of
// every registered protocol. Each of the 74,496 rejected Complete
// cells is probed twice, and each rejection allocates its panic value
// once; the rest of a compile allocates a few hundred objects. Probing
// a cell a third time, allocating probe transactions, or formatting
// the panic message would each add over 149,000.
const compileAllocBudget = 150000

// TestCompileAllocBudget pins the work of compiling every registered
// protocol as an exact, host-independent allocation count.
func TestCompileAllocBudget(t *testing.T) {
	protos := make([]protocol.Protocol, len(all.Everything))
	for i, name := range all.Everything {
		protos[i] = protocol.MustNew(name)
	}
	allocs := testing.AllocsPerRun(2, func() {
		for _, p := range protos {
			if _, err := protocol.Compile(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("compiling all %d protocols: %.0f allocations", len(protos), allocs)
	if allocs > compileAllocBudget {
		t.Fatalf("compiling all %d protocols allocates %.0f objects, budget %d",
			len(protos), allocs, compileAllocBudget)
	}
}

// BenchmarkCompileAll times a cold compile of every registered
// protocol, the work a new process pays on first use.
func BenchmarkCompileAll(b *testing.B) {
	protos := make([]protocol.Protocol, len(all.Everything))
	for i, name := range all.Everything {
		protos[i] = protocol.MustNew(name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range protos {
			if _, err := protocol.Compile(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
