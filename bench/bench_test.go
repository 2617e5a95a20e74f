package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.1: 1.3, 0.9: 3.7}
	for q, want := range cases {
		if got := quantile(xs, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample should read 0")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4):
// [1..10] → [2.75, 5.5, 8.25]; [1, 2] → [0.75, 1.5, 2.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

// The latency metric takes each class's quantile and the geometric mean
// over the classes that ran, so a class's weight does not depend on how
// many operations it got.
func TestLatP90(t *testing.T) {
	lr := newLoopResult(3)
	// Class 0: 1001 operations of 1..2 ms (p90 1.9 ms).
	for i := 0; i <= 1000; i++ {
		lr.add(0, time.Millisecond+time.Duration(i)*time.Microsecond)
	}
	// Class 1: 11 operations of 4..14 ms (p90 13 ms).
	// Class 2 never ran and is left out.
	for i := 0; i <= 10; i++ {
		lr.add(1, time.Duration(4+i)*time.Millisecond)
	}
	if p90, want := lr.latP90(), math.Sqrt(1.9*13); math.Abs(p90-want)/want > 1.0/histSub {
		t.Errorf("p90 = %v ms, want %v", p90, want)
	}
	if lr.count() != 1012 {
		t.Errorf("count = %d, want 1012", lr.count())
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	var xs []float64
	// A spread of latencies from 20 µs to 20 ms.
	for i := 0; i < 5000; i++ {
		d := time.Duration(20_000 * math.Pow(1000, float64(i)/4999))
		h.add(d)
		xs = append(xs, float64(d)/1e6)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("q%.2f = %v ms, exact %v ms: off by more than one bucket", q, got, want)
		}
	}
	// Bucket boundaries round-trip.
	for _, ns := range []int64{0, 63, 64, 127, 128, 1000, 123456789} {
		lo, width := bucketBounds(histIndex(ns))
		if float64(ns) < lo || float64(ns) >= lo+width {
			t.Errorf("%d ns landed in bucket [%v, %v)", ns, lo, lo+width)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.build", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "coherence.check", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "workload.next", Start: 12, End: 15},
	}
	got := selfTimes(spans)
	// bench.op: 100 − |[10,50] ∪ [90,100]| = 50. sim: (20 − 3) + 30.
	want := map[string]int64{"bench": 50, "sim": 47, "coherence": 30, "workload": 3}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	if got := judge(base, better, false, 0.1); got != improved {
		t.Errorf("10/10 lower-is-better wins: %s, want improved", got)
	}
	if got := judge(base, better, true, 0.1); got != unchanged {
		t.Errorf("9%% lower on a higher-is-better metric, bound 10%%: %s, want unchanged", got)
	}
	if got := judge(base, better, true, 0.05); got != worse {
		t.Errorf("9%% lower on a higher-is-better metric, bound 5%%: %s, want worse", got)
	}
	// Eight wins of ten pairs is not enough to claim a gain.
	mixed := append([]float64(nil), better...)
	mixed[0], mixed[1] = 110, 110
	if got := judge(base, mixed, false, 0.2); got != unchanged {
		t.Errorf("8/10 wins: %s, want unchanged", got)
	}
	// Fewer than ten pairs never improves.
	if got := judge(base[:5], better[:5], false, 0.1); got != unchanged {
		t.Errorf("5 pairs: %s, want unchanged", got)
	}
	// A parent spread wider than the bound leaves the verdict open...
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	same := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	if got := judge(wide, same, false, 0.1); got != unresolved {
		t.Errorf("wide parent spread: %s, want unresolved", got)
	}
	// ...unless every run of the change beats every run of the parent.
	if got := judge(wide, []float64{40, 41, 42}, false, 0.1); got != unchanged {
		t.Errorf("all better than a wide parent: %s, want unchanged", got)
	}
	// Without a bound, worse mirrors the gain rule.
	if got := judge(better, base, false, 0); got != worse {
		t.Errorf("unbounded 10/10 losses: %s, want worse", got)
	}
}

// TestSmoke runs every workload briefly, untraced, then one traced run,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	check := func(rec record, want []metricSpec) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", rec.Workload, rec.Trace,
				rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json has %d", rec.Workload, rec.Trace,
				len(rec.Metrics), len(want))
		}
		for _, s := range want {
			m, ok := rec.Metrics[s.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: metric %s not printed", rec.Workload, rec.Trace, s.Name)
			case m.Unit != s.Unit:
				t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", rec.Workload, s.Name, m.Unit, s.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", rec.Workload, s.Name, m.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		rec, err := runWorkload(options{workload: w.Name, seed: 1, seconds: 0.4, setups: 1, quick: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		check(rec, spec.EndToEnd)
	}
	rec, err := runWorkload(options{workload: "serve-hit", seed: 2, seconds: 0.4, trace: true, quick: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check(rec, spec.PerLayer)
}
