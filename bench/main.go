// Command bench is the repository's outside-in benchmark. It times calls
// into the public functions of every layer — workload generators, the
// simulator, the two-tier machine, trace replay, the model checker, the
// coherence checker, simrun, the runner cache, the serving daemon and
// the cluster router — on four workloads, and checks every result it
// times. Run it from the repository root:
//
//	bash bench/run.sh --workload engine --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics instead. Without
// --workload every workload runs in its own child process. See
// README.md for the workloads, metrics and estimators.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cachesync"
	"cachesync/internal/protocol"
)

// processStart is taken during package initialization, so setup_s
// covers everything the process does before its first timed operation.
var processStart = time.Now()

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s reports the median.
const setupRepeats = 3

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span output file (traced runs)
	out      string // result record file, appended
	setups   int    // set-up repetitions
	quick    bool   // shrink ladders (tests)
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is one run as written by -out: the result plus what is needed
// to compare it with another run.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	TimedS     float64 `json:"timed_s"`
	WallS      float64 `json:"wall_s"`
	result
}

// tally counts operations attempted and failed. Every timed operation
// and every correctness check is one attempt; a wrong answer is a
// failed operation, never a skipped one.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// expect counts one check, failing it with the message when cond is
// false.
func (t *tally) expect(cond bool, format string, args ...any) {
	if cond {
		t.ok()
		return
	}
	t.fail(format, args...)
}

// env is what a workload or ladder needs from the run.
type env struct {
	opts  options
	tally *tally
	tmp   string // per-run temporary directory, removed at exit
	root  string // repository root, for the committed reference files
}

// loopResult is what one timed closed loop measured: the latency of
// every successful operation, by class (see latP90).
type loopResult struct {
	lats         []hist
	runnerMisses int64 // fresh executions the server ran
}

func newLoopResult(classes int) *loopResult {
	return &loopResult{lats: make([]hist, classes)}
}

func (lr *loopResult) add(class int, lat time.Duration) { lr.lats[class].add(lat) }

// latP90 is the latency estimator, in milliseconds. Each workload's
// operations fall into classes of very different cost (machine
// configurations, explorations, request keys, protocols); the 90th
// percentile is taken within each class and the geometric mean over the
// classes that ran is reported. A quantile of the mixture would fall in
// a gap between two classes and jump with how many operations each got.
//
// It is the 90th percentile, not the median. The shared host runs
// memory-bound code 10–20% slower for spells of tens of seconds, often
// longer than a run; every run spends at least a tenth of its time in
// one, so the 90th percentile reads the code's cost at the host's
// contended speed, while the median and the fast decile move with how
// much of the run a spell covers.
func (lr *loopResult) latP90() float64 {
	var xs []float64
	for i := range lr.lats {
		if lr.lats[i].n > 0 {
			xs = append(xs, lr.lats[i].quantile(0.9))
		}
	}
	return geomean(xs)
}

// count is the number of timed operations.
func (lr *loopResult) count() int {
	n := 0
	for i := range lr.lats {
		n += int(lr.lats[i].n)
	}
	return n
}

// instance is one set-up workload.
type instance interface {
	// run drives the closed loop for d, then checks the results it
	// could not check inside the loop. tr is nil on untraced runs.
	run(d time.Duration, tr *tracer) (*loopResult, error)
	close()
}

type workloadDef struct {
	name  string
	setup func(*env) (instance, error)
}

var workloads = []workloadDef{
	{"engine", setupEngine},
	{"check", setupCheck},
	{"serve-hit", setupServeHit},
	{"serve-miss", setupServeMiss},
}

func main() {
	// Every workload is driven by one goroutine. One P keeps the daemon,
	// the client and the collector on one thread, so the measurement does
	// not depend on whether a second CPU of the shared host is free at
	// the moment (with two, serve-hit's fast latency spread 0.20 of its
	// median across runs, against 0.07 with one).
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "engine | check | serve-hit | serve-miss (empty: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "timed duration of the closed loop")
	fs.IntVar(&traceN, "trace", 0, "1: record spans and print per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans to this file as JSON lines")
	fs.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	o.trace = traceN == 1
	o.setups = setupRepeats
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	rec, err := runWorkload(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
	}
	line, _ := json.Marshal(rec.result) // runWorkload rejected non-finite metrics
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process, printing a readable
// metric table to w. It returns an error only when the benchmark itself
// could not run; wrong answers are counted in the record.
func runWorkload(o options, w io.Writer) (record, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return record{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	root, err := repoRoot()
	if err != nil {
		return record{}, err
	}
	tmp, err := os.MkdirTemp("", "cachesync-bench-")
	if err != nil {
		return record{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{opts: o, tally: &tally{}, tmp: tmp, root: root}

	initDur := time.Since(processStart)
	compileStart := time.Now()
	compileTables()
	compile := time.Since(compileStart)

	m := metrics{}
	var timed time.Duration
	if o.trace {
		timed, err = runTraced(e, def, m, compile)
	} else {
		timed, err = runUntraced(e, def, m, initDur)
	}
	if err != nil {
		return record{}, err
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return record{}, fmt.Errorf("metric %s is %v: too little was measured", name, v.Value)
		}
	}
	rec := record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: o.seconds, TimedS: timed.Seconds(), WallS: time.Since(processStart).Seconds(),
		result: result{
			Attempted: e.tally.attempted.Load(), Failed: e.tally.failed.Load(), Metrics: m,
		},
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, msg := range e.tally.msgs {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", o.workload, msg)
	}
	printTable(w, rec)
	return rec, nil
}

// runUntraced sets the workload up e.opts.setups times (keeping the
// last instance), runs the closed loop once and fills the end-to-end
// metrics. setup_s is the process start-up plus the median set-up, where
// a set-up compiles every protocol's tables afresh — the work a new
// process pays on first use, which a single measurement would leave to
// the host's noise — and then sets the workload up. A collection after
// each set-up keeps one set-up's garbage out of the next one's peak
// memory.
func runUntraced(e *env, def *workloadDef, m metrics, initDur time.Duration) (time.Duration, error) {
	var setups []float64
	var inst instance
	for k := 0; k < e.opts.setups; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		compileFresh()
		var err error
		if inst, err = def.setup(e); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	t0 := time.Now()
	lr, err := inst.run(e.opts.duration(), nil)
	if err != nil {
		return 0, err
	}
	timed := time.Since(t0)
	m.set("setup_s", initDur.Seconds()+median(setups), "s")
	m.set("peak_rss_mb", peakRSSMiB(), "MiB")
	setLatency(m, lr)
	return timed, nil
}

// runTraced runs the closed loop twice on one instance — untraced, then
// with spans — for half the duration each, then every per-layer ladder.
// Each ladder runs a fixed amount of work, so a traced run prints the
// same per-layer metrics whichever workload it was started for; the
// workload's own loop adds its span shares and tracing overhead.
func runTraced(e *env, def *workloadDef, m metrics, compile time.Duration) (time.Duration, error) {
	inst, err := def.setup(e)
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	half := e.opts.duration() / 2
	plain, err := inst.run(half, nil)
	if err != nil {
		inst.close()
		return 0, err
	}
	tr := newTracer()
	t0 := time.Now()
	traced, err := inst.run(half, tr)
	timed := time.Since(t0)
	inst.close()
	if err != nil {
		return 0, err
	}
	// How much slower the latency read with spans on than off, as a
	// fraction (0.02 = 2% worse).
	m.set("trace.overhead.lat_p90_ms", traced.latP90()/plain.latP90()-1, "ratio")
	setShares(m, tr.snapshot())
	m.set("timed.runner_misses", float64(plain.runnerMisses+traced.runnerMisses), "count")
	m.set("protocol.compile_ms", float64(compile)/float64(time.Millisecond), "ms")

	ladders := []func(*env, metrics, *tracer) error{
		setupLadder, engineLadder, mcheckLadder, serveMissLadder, serveHitLadder,
	}
	for _, ladder := range ladders {
		if err := ladder(e, m, tr); err != nil {
			return 0, err
		}
	}
	if e.opts.spans != "" {
		if err := tr.writeFile(e.opts.spans); err != nil {
			return 0, err
		}
	}
	return timed, nil
}

// setLatency fills the latency metric of one loop, warning when fewer
// than ten operations lie beyond their class's 90th percentile.
func setLatency(m metrics, lr *loopResult) {
	m.set("lat_p90_ms", lr.latP90(), "ms")
	if lr.count() < 100 {
		fmt.Fprintf(os.Stderr, "bench: lat_p90_ms rests on %d operations, fewer than 10 beyond it\n", lr.count())
	}
}

// shareLayers are the layers whose share of the workload's own traced
// loop is reported; a layer the workload never calls reads 0.
var shareLayers = []string{"workload", "trace", "sim", "coherence", "mcheck", "http", "bench"}

// setShares reports each layer's share of the self time recorded in the
// workload's traced loop.
func setShares(m metrics, spans []span) {
	self := selfTimes(spans)
	var total int64
	for _, v := range self {
		total += v
	}
	for _, l := range shareLayers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		m.set("timed.share."+l, share, "ratio")
	}
}

// compileTables builds every protocol's transition tables, which the
// engines otherwise compile lazily on first use.
func compileTables() {
	for _, name := range cachesync.Protocols() {
		protocol.TableFor(protocol.MustNew(name))
	}
}

// compileFresh repeats compileTables' work without its cache. A protocol
// that does not compile stays on the method path, as in TableFor.
func compileFresh() {
	for _, name := range cachesync.Protocols() {
		_, _ = protocol.Compile(protocol.MustNew(name))
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repoRoot finds the directory holding BENCHMARK.json, walking up from
// the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory; run from the repository root")
		}
		dir = parent
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTable(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v timed=%.1fs wall=%.1fs attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.TimedS, rec.WallS, rec.Attempted, rec.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

// runAll runs every workload in its own child process with the same
// flags and prints one combined result, metrics keyed workload/metric.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	all := result{Correct: true, Metrics: metrics{}}
	code := 0
	for _, def := range workloads {
		args := []string{"-workload", def.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.spans != "" {
				args = append(args, "-spans", o.spans+"."+def.name)
			}
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var res result
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", def.name, runErr)
			return 2
		}
		if runErr != nil {
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, v := range res.Metrics {
			all.Metrics[def.name+"/"+n] = v
		}
	}
	line, _ := json.Marshal(all) // the children's metrics parsed as finite numbers
	fmt.Println(string(line))
	return code
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}
