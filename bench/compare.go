package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// `compare -base FILES -new FILES` judges a change against its parent
// from result records written with -out: the i-th run of a workload in
// the base files pairs with the i-th run of that workload in the new
// files, so run the two sides alternately.

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts, per (workload, metric).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge applies the gain rule to paired runs: the change improved a
// metric when there are at least ten pairs, the change wins at least
// nine tenths of them (ties count for neither side), and the medians
// differ by more than the distance between the parent's quartiles. It
// is worse when its median is worse than the parent's by more than the
// bound (a metric without a bound is worse by the mirror of the gain
// rule). It is unresolved when the parent's own spread exceeds the
// bound, unless every run of the change beats every run of the parent.
func judge(base, cur []float64, higherBetter bool, bound float64) string {
	if len(base) < 2 || len(cur) == 0 {
		return unresolved
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	n := min(len(base), len(cur))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(cur[i], base[i]):
			wins++
		case better(base[i], cur[i]):
			losses++
		}
	}
	bm, cm := median(base), median(cur)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	separated := math.Abs(cm-bm) > iqr
	if n >= 10 && 10*wins >= 9*n && separated && better(cm, bm) {
		return improved
	}
	if bound > 0 {
		worseBy := (cm - bm) / math.Abs(bm)
		if higherBetter {
			worseBy = -worseBy
		}
		if worseBy > bound {
			return worse
		}
		if iqr/math.Abs(bm) > bound && !allBetter(cur, base, better) {
			return unresolved
		}
		return unchanged
	}
	if n >= 10 && 10*losses >= 9*n && separated && better(bm, cm) {
		return worse
	}
	return unchanged
}

// allBetter reports whether every value of cur beats every value of base.
func allBetter(cur, base []float64, better func(a, b float64) bool) bool {
	for _, c := range cur {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// readRecords loads result records from comma-separated JSON-lines
// files, grouped by workload in file order.
func readRecords(files string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, path := range strings.Split(files, ",") {
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out[r.Workload] = append(out[r.Workload], r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return out, nil
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseFiles := fs.String("base", "", "comma-separated result files of the parent (written with -out)")
	newFiles := fs.String("new", "", "comma-separated result files of the change")
	specPath := fs.String("spec", "", "BENCHMARK.json (default: the one above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseFiles == "" || *newFiles == "" {
		fmt.Fprintln(os.Stderr, "compare: need -base and -new")
		return 2
	}
	if *specPath == "" {
		root, err := repoRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			return 2
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	specs := map[string]metricSpec{}
	for _, s := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[s.Name] = s
	}
	base, err := readRecords(*baseFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	cur, err := readRecords(*newFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	compareRecords(w, base, cur, specs)
	return 0
}

// compareRecords prints one verdict line per (workload, metric) found
// on both sides.
func compareRecords(w io.Writer, base, cur map[string][]record, specs map[string]metricSpec) {
	workloads := make([]string, 0, len(base))
	for wl := range base {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-11s %-34s %5s %14s %14s %14s  %s\n", "workload", "metric", "pairs", "base median", "base IQR", "new median", "verdict")
	for _, wl := range workloads {
		names := map[string]bool{}
		for _, r := range base[wl] {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			s, ok := specs[n]
			if !ok {
				continue
			}
			b, c := values(base[wl], n), values(cur[wl], n)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			iqr := 0.0
			if len(b) >= 2 {
				q1, q3 := quartiles(b)
				iqr = q3 - q1
			}
			fmt.Fprintf(w, "%-11s %-34s %5d %14.6g %14.6g %14.6g  %s\n", wl, n, min(len(b), len(c)),
				median(b), iqr, median(c), judge(b, c, s.Better == "higher", s.Bound))
		}
	}
}

// values collects one metric across records, in order.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
