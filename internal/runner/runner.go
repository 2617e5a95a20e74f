// Package runner is the parallel experiment engine: every artifact
// regeneration — an experiment table, a figure reproduction, a sweep
// point — becomes a Job executed by a worker pool, with two
// guarantees the sequential drivers could not give:
//
//  1. determinism — artifacts are merged in job order, so parallel
//     output is byte-identical to sequential for any worker count
//     (asserted by TestDeterministicAcrossWorkers, the same contract
//     internal/mcheck's parallel BFS keeps);
//  2. caching — an on-disk result cache under .runnercache/ keyed by
//     the job's config hash plus a source hash skips jobs whose code
//     and configuration are unchanged.
//
// What the jobs produce is pinned by the report package's golden
// tests, which hold every artifact's full text and pass verdict.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Name identifies the job in errors and in its artifact, and keys
	// the result cache together with ConfigHash.
	Name string
	// ConfigHash summarizes every runtime parameter the output depends
	// on. Together with the source hash it keys the result cache; jobs
	// whose parameters live entirely in code can use the name.
	ConfigHash string
	// Run regenerates the artifact. It must be deterministic and must
	// not depend on other jobs: the workers run jobs in arbitrary order
	// and results merge by job index.
	Run func() (Artifact, error)
}

// JobResult pairs an artifact with its execution record.
type JobResult struct {
	Artifact Artifact
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

// Options configures one pool run.
type Options struct {
	// Workers is the pool size (-j N); values < 1 mean GOMAXPROCS.
	Workers int
	// Cache enables the on-disk result cache (see Cache). Nil runs
	// every job.
	Cache *Cache
}

// Run executes every job on a worker pool (Ordered) and merges the
// results in job order. The first job to fail stops the run: no job
// starts after it, and its error is returned.
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
	err := Ordered(context.Background(), len(jobs), workers,
		func(_ context.Context, i int) (JobResult, error) {
			jr, err := RunOne(jobs[i], opts.Cache)
			if err != nil {
				return jr, fmt.Errorf("runner: job %q: %w", jobs[i].Name, err)
			}
			return jr, nil
		},
		func(i int, jr JobResult) { res.Jobs[i] = jr })
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	return res, nil
}

// Ordered runs do(ctx, i) for every i in [0, n) on up to workers
// goroutines and hands each result to deliver on the caller's
// goroutine in index order: deliver(i, ...) strictly after
// deliver(i-1, ...), whatever order the calls finish in. It is the one
// executor behind Run and simrun.RunCells, which is why their merged
// output is byte-identical to a sequential loop at any worker count.
//
// workers < 1 means GOMAXPROCS, and no more workers start than there
// are indices. The first error stops dispatch: no later index starts,
// the ctx handed to the calls still running is canceled, the results
// before the lowest failed index are delivered, and the error that
// stopped the run is returned. A canceled ctx stops dispatch the same
// way.
func Ordered[T any](ctx context.Context, n, workers int,
	do func(ctx context.Context, i int) (T, error), deliver func(i int, v T)) error {

	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// The first failure cancels cctx with itself as the cause: that
	// stops dispatch, and it is the error the caller gets back.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	type slot struct {
		v    T
		err  error
		done chan struct{}
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &slots[i]
				if s.err = cctx.Err(); s.err == nil {
					if s.v, s.err = do(cctx, i); s.err != nil {
						cancel(s.err)
					}
				}
				close(s.done)
			}
		}()
	}

	var err error
	for i := range slots {
		<-slots[i].done
		if slots[i].err != nil {
			err = context.Cause(cctx)
			break
		}
		deliver(i, slots[i].v)
	}
	cancel(nil)
	wg.Wait()
	return err
}

// RunOne executes (or recalls) a single job; a panic in the job comes
// back as an error. With a cache the execution goes through Cache.Do,
// so concurrent same-key jobs — from several runs sharing one cache,
// or the serving daemon's concurrent requests — collapse to one run.
func RunOne(j Job, c *Cache) (JobResult, error) {
	if c == nil {
		art, err := safeRun(j)
		if err != nil {
			return JobResult{}, err
		}
		art.Name = j.Name
		return JobResult{Artifact: art}, nil
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
	return JobResult{Artifact: art, Cached: cached, Shared: shared}, nil
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
