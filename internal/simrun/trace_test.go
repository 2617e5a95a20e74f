package simrun

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachesync/internal/protocol/all"
)

// TestLockTraceReplaysOnEveryProtocol: trace lock events follow the
// run's locking scheme, so lock traces replay coherently on all 13
// protocols — the hardware lock where the protocol has one, the
// scheme's syncprim acquire and release elsewhere. The second trace
// has `tracegen -pattern lock`'s shape, whose unlocks store nonzero
// values; the bitar report of the first is byte-identical to
// testdata/lock_trace_bitar.golden.
func TestLockTraceReplaysOnEveryProtocol(t *testing.T) {
	var gen strings.Builder
	for p := 0; p < 2; p++ {
		for k := 0; k < 3; k++ {
			fmt.Fprintf(&gen, "%d L 0\n%d W 1 %d\n%d U 0 %d\n%d C 9\n", p, p, k, p, k, p)
		}
	}
	traces := []string{"0 L 0\n0 W 1 5\n0 U 0 0\n1 L 0\n1 U 0 0\n", gen.String()}
	want, err := os.ReadFile("testdata/lock_trace_bitar.golden")
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range traces {
		path := filepath.Join(t.TempDir(), "l.trace")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range all.Everything {
			// A lock left held would spin every waiter until MaxCycles;
			// the deadline turns that into a prompt failure.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res, err := Run(ctx, Config{Protocol: name, Procs: 2, Workload: "trace", TraceFile: path}.Normalize())
			cancel()
			if err != nil {
				t.Errorf("trace %d on %s: %v", i, name, err)
				continue
			}
			if !res.Pass {
				t.Errorf("trace %d on %s: replay not coherent:\n%s", i, name, res.Output)
			}
			if i == 0 && name == "bitar" && res.Output != string(want) {
				t.Errorf("bitar report differs from the golden:\n%s", res.Output)
			}
		}
	}
}
