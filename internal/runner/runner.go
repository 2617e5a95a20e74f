// Package runner is the parallel experiment engine: every artifact
// regeneration — an experiment table, a figure reproduction, a sweep
// point — becomes a Job executed by a worker pool, with three
// guarantees the sequential drivers could not give:
//
//  1. determinism — artifacts are merged in job order, so parallel
//     output is byte-identical to sequential for any worker count
//     (asserted by TestDeterministicAcrossWorkers, the same contract
//     internal/mcheck's parallel BFS keeps);
//  2. caching — an on-disk result cache under .runnercache/ keyed by
//     the job's config hash plus a source hash skips jobs whose code
//     and configuration are unchanged;
//  3. gating — results serialize to a JSON artifact file with per-job
//     wall-clock and output hashes, diffable against a committed
//     baseline (ARTIFACTS.json) for the whole experiment suite.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Artifact is one job's regenerated output.
type Artifact struct {
	// Name echoes the job name.
	Name string `json:"name"`
	// Output is the rendered text of the artifact (a table, a figure).
	Output string `json:"output"`
	// Pass is false when the artifact diverges from the paper's
	// expected behavior (a failed figure check, a Table 1 mismatch).
	Pass bool `json:"pass"`
}

// Job is one independent unit of regeneration work.
type Job struct {
	// Name identifies the job; it is the stable key the gate matches
	// baselines by, so renaming a job orphans its baseline entry.
	Name string
	// ConfigHash summarizes every runtime parameter the output depends
	// on. Together with the source hash it keys the result cache; jobs
	// whose parameters live entirely in code can use the name.
	ConfigHash string
	// Run regenerates the artifact. It must be deterministic and must
	// not depend on other jobs: the pool runs jobs in arbitrary order
	// and merges results by job index.
	Run func() (Artifact, error)
}

// JobResult pairs an artifact with its execution record.
type JobResult struct {
	Artifact Artifact
	// Wall is the job's wall-clock duration (zero when Cached).
	Wall time.Duration
	// Cached reports that the artifact came from the result cache.
	Cached bool
	// Shared reports that the artifact came from another concurrent
	// execution of the same cache key (single flight), not from this
	// caller running the job itself.
	Shared bool
}

// Result is one pool run over a job list.
type Result struct {
	// Jobs holds one entry per submitted job, in submission order
	// regardless of completion order.
	Jobs []JobResult
	// Workers is the pool size used.
	Workers int
	// Wall is the end-to-end wall-clock of the run.
	Wall time.Duration
}

// Output concatenates every artifact's output in job order — the
// deterministic merged stream the sequential drivers used to print.
func (r *Result) Output() string {
	n := 0
	for i := range r.Jobs {
		n += len(r.Jobs[i].Artifact.Output)
	}
	out := make([]byte, 0, n)
	for i := range r.Jobs {
		out = append(out, r.Jobs[i].Artifact.Output...)
	}
	return string(out)
}

// AllPass reports whether every artifact matched its expectation.
func (r *Result) AllPass() bool {
	for i := range r.Jobs {
		if !r.Jobs[i].Artifact.Pass {
			return false
		}
	}
	return true
}

// CachedCount returns how many jobs were served from the cache.
func (r *Result) CachedCount() int {
	n := 0
	for i := range r.Jobs {
		if r.Jobs[i].Cached {
			n++
		}
	}
	return n
}

// Slowest returns the names and wall-clocks of the k slowest
// non-cached jobs, longest first — the critical-path view.
func (r *Result) Slowest(k int) []JobResult {
	live := make([]JobResult, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if !j.Cached {
			live = append(live, j)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].Wall > live[j].Wall })
	if k < len(live) {
		live = live[:k]
	}
	return live
}

// Options configures one pool run.
type Options struct {
	// Workers is the pool size (-j N); values < 1 mean GOMAXPROCS.
	Workers int
	// Cache enables the on-disk result cache (see Cache). Nil runs
	// every job.
	Cache *Cache
}

// Run executes every job on a worker pool and merges the results in
// job order. The first job error aborts the run (remaining jobs may
// still execute; their results are discarded).
func Run(jobs []Job, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	for i, j := range jobs {
		if j.Run == nil {
			return nil, fmt.Errorf("runner: job %d (%q) has no Run function", i, j.Name)
		}
		if j.Name == "" {
			return nil, fmt.Errorf("runner: job %d has no name", i)
		}
	}

	start := time.Now()
	res := &Result{Jobs: make([]JobResult, len(jobs)), Workers: workers}

	type outcome struct {
		idx int
		err error
	}
	idxCh := make(chan int)
	outCh := make(chan outcome, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				jr, err := runOne(jobs[i], opts.Cache)
				res.Jobs[i] = jr // each worker writes a distinct index
				outCh <- outcome{idx: i, err: err}
			}
		}()
	}
	go func() {
		for i := range jobs {
			idxCh <- i
		}
		close(idxCh)
	}()

	var firstErr error
	for range jobs {
		o := <-outCh
		if o.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("runner: job %q: %w", jobs[o.idx].Name, o.err)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Wall = time.Since(start)
	return res, nil
}

// runOne executes (or recalls) a single job. With a cache the
// execution goes through Cache.Do, so concurrent same-key jobs —
// possible when several pools share one cache, as the serving daemon's
// request pool does — collapse to a single run.
func runOne(j Job, c *Cache) (JobResult, error) {
	t0 := time.Now()
	if c == nil {
		art, err := safeRun(j)
		if err != nil {
			return JobResult{}, err
		}
		art.Name = j.Name
		return JobResult{Artifact: art, Wall: time.Since(t0)}, nil
	}
	art, cached, shared, err := c.Do(j, func() (Artifact, error) {
		art, err := safeRun(j)
		if err == nil {
			art.Name = j.Name
		}
		return art, err
	})
	if err != nil {
		return JobResult{}, err
	}
	wall := time.Since(t0)
	if cached {
		wall = 0
	}
	return JobResult{Artifact: art, Wall: wall, Cached: cached, Shared: shared}, nil
}

// safeRun converts a job panic into an error so one bad experiment
// cannot take down the whole regeneration (report generators panic on
// internal failures).
func safeRun(j Job) (art Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return j.Run()
}
