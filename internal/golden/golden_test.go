package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTB records what Check reports instead of failing the test that
// runs it.
type fakeTB struct {
	testing.TB
	errs []string
}

func (f *fakeTB) Helper()      {}
func (f *fakeTB) Name() string { return "TestPinned/case" }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	const (
		pinned = "alpha\nbeta\ngamma\n"
		regen  = "go test ./internal/golden -run '^TestPinned$' -update"
	)
	for _, tc := range []struct {
		name    string
		file    string // committed contents, unless missing
		missing bool
		got     string
		update  bool
		report  []string // what the failure names; nil when Check passes
	}{
		{name: "match", file: pinned, got: pinned},
		{name: "missing file", missing: true, got: pinned,
			report: []string{"no such file", regen}},
		{name: "one changed byte", file: pinned, got: "alpha\nbeTa\ngamma\n",
			report: []string{"line 2:", `got: "beTa\n"`, `want: "beta\n"`, regen}},
		{name: "trailing newline", file: pinned, got: "alpha\nbeta\ngamma",
			report: []string{"line 3:", `got: "gamma"`, `want: "gamma\n"`, regen}},
		{name: "missing line", file: pinned, got: "alpha\nbeta\n",
			report: []string{"line 3:", `got: ""`, `want: "gamma\n"`}},
		{name: "extra line", file: pinned, got: pinned + "delta\n",
			report: []string{"line 4:", `got: "delta\n"`, `want: ""`}},
		{name: "update writes a missing file", missing: true, got: pinned, update: true},
		{name: "update rewrites a stale file", file: pinned, got: "alpha\nbeTa\n", update: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pinned.golden")
			if !tc.missing {
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			*update = tc.update
			defer func() { *update = false }()
			tb := &fakeTB{TB: t}
			Check(tb, path, tc.got)
			switch {
			case tc.report == nil && len(tb.errs) > 0:
				t.Fatalf("Check failed: %q", tb.errs)
			case tc.report != nil && len(tb.errs) != 1:
				t.Fatalf("Check reported %q, want one failure", tb.errs)
			}
			for _, want := range tc.report {
				if !strings.Contains(tb.errs[0], want) {
					t.Errorf("failure does not name %q:\n%s", want, tb.errs[0])
				}
			}
			if !tc.update {
				return
			}
			// The written file is the output, and the next check passes.
			if data, err := os.ReadFile(path); err != nil || string(data) != tc.got {
				t.Fatalf("-update left %q (%v), want %q", data, err, tc.got)
			}
			*update = false
			Check(tb, path, tc.got)
			if len(tb.errs) > 0 {
				t.Fatalf("check after -update failed: %q", tb.errs)
			}
		})
	}
}
