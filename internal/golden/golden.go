// Package golden holds test output to committed golden files. It is
// the one mechanism behind every byte-pinned output of the repository,
// and like internal/ptest it is imported only by tests. A missing file
// fails, and a mismatch reports the first line that differs; both name
// the command that regenerates the file. Under -update, Check writes
// the output to the file instead.
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// Check holds got to the golden file at path, relative to the test's
// package directory; under -update it writes got to path.
func Check(tb testing.TB, path, got string) {
	tb.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			tb.Errorf("golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tb.Errorf("golden: %v\nregenerate with: %s", err, command(tb))
		return
	}
	if got == string(want) {
		return
	}
	// Split after each newline, so a difference in line endings shows.
	// The texts differ, so some line below both lengths differs: the
	// last piece of each has no newline, and every other piece ends in
	// one.
	gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
	i := 0
	for gl[i] == wl[i] {
		i++
	}
	tb.Errorf("golden: %s differs at line %d:\n got: %q\nwant: %q\ninspect, then regenerate with: %s",
		path, i+1, gl[i], wl[i], command(tb))
}

// command is the command, run from the module root, that regenerates
// tb's golden files: tb's top-level test under -update. go test runs a
// package's tests in its source directory, so that directory relative
// to the nearest go.mod names the package.
func command(tb testing.TB) string {
	test, _, _ := strings.Cut(tb.Name(), "/")
	// A failed Getwd or Rel only blurs the hint, so their errors are
	// dropped.
	pkg, _ := os.Getwd()
	for root := pkg; filepath.Dir(root) != root; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			pkg, _ = filepath.Rel(root, pkg)
			break
		}
	}
	pkg = strings.TrimSuffix("./"+filepath.ToSlash(pkg), "/.")
	return fmt.Sprintf("go test %s -run '^%s$' -update", pkg, test)
}
