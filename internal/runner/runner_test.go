package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJobs builds n jobs whose outputs are order-sensitive and whose
// durations are staggered so completion order differs from submission
// order under any parallel pool.
func fakeJobs(n int, ran *atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name:       fmt.Sprintf("job-%02d", i),
			ConfigHash: fmt.Sprintf("cfg-%d", i),
			Run: func() (Artifact, error) {
				// Earlier jobs sleep longer: with >1 worker they finish
				// after later jobs, so any merge that follows completion
				// order scrambles the output.
				time.Sleep(time.Duration((n-i)%4) * time.Millisecond)
				if ran != nil {
					ran.Add(1)
				}
				return Artifact{Output: fmt.Sprintf("artifact %02d\n", i), Pass: true}, nil
			},
		}
	}
	return jobs
}

// TestDeterministicAcrossWorkers asserts the runner's core contract:
// the merged output is byte-identical for any worker count — the same
// guarantee the mcheck parallel BFS keeps for its exploration.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := fakeJobs(16, nil)
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Run(jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.Output()
		if workers == 1 {
			want = got
			for i := 0; i < 16; i++ {
				if !strings.Contains(want, fmt.Sprintf("artifact %02d", i)) {
					t.Fatalf("sequential output missing job %d:\n%s", i, want)
				}
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d output differs from sequential:\n got: %q\nwant: %q", workers, got, want)
		}
	}
}

func TestRunErrorPropagates(t *testing.T) {
	jobs := fakeJobs(4, nil)
	jobs[2].Run = func() (Artifact, error) { return Artifact{}, fmt.Errorf("boom") }
	if _, err := Run(jobs, Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "job-02") {
		t.Fatalf("want error naming job-02, got %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	jobs := fakeJobs(3, nil)
	jobs[1].Run = func() (Artifact, error) { panic("experiment exploded") }
	_, err := Run(jobs, Options{Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "experiment exploded") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

func TestRunValidatesJobs(t *testing.T) {
	if _, err := Run([]Job{{Name: "x"}}, Options{}); err == nil {
		t.Error("nil Run accepted")
	}
	if _, err := Run([]Job{{Run: func() (Artifact, error) { return Artifact{}, nil }}}, Options{}); err == nil {
		t.Error("empty name accepted")
	}
}

// testCache opens a cache rooted in a temp dir with a fixed source
// hash, so tests control invalidation explicitly.
func testCache(t *testing.T, dir, sourceHash string) *Cache {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := openCacheHash(dir, sourceHash)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheSkipsUnchangedJobs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := testCache(t, dir, "src-v1")

	var ran atomic.Int64
	jobs := fakeJobs(8, &ran)

	cold, err := Run(jobs, Options{Workers: 4, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("cold run executed %d jobs, want 8", got)
	}
	if cold.CachedCount() != 0 {
		t.Fatalf("cold run reported %d cached jobs", cold.CachedCount())
	}

	warm, err := Run(jobs, Options{Workers: 4, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("warm run re-executed jobs: %d total runs, want 8", got)
	}
	if warm.CachedCount() != 8 {
		t.Fatalf("warm run served %d/8 from cache", warm.CachedCount())
	}
	if warm.Output() != cold.Output() {
		t.Errorf("cached output differs:\n got: %q\nwant: %q", warm.Output(), cold.Output())
	}
}

func TestCacheInvalidatesOnSourceAndConfigChange(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var ran atomic.Int64
	jobs := fakeJobs(3, &ran)

	if _, err := Run(jobs, Options{Workers: 1, Cache: testCache(t, dir, "src-v1")}); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("cold run executed %d jobs", got)
	}

	// A source change misses every entry.
	res, err := Run(jobs, Options{Workers: 1, Cache: testCache(t, dir, "src-v2")})
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedCount() != 0 || ran.Load() != 6 {
		t.Fatalf("source change did not invalidate: cached=%d runs=%d", res.CachedCount(), ran.Load())
	}

	// A config change misses only the changed job.
	jobs[1].ConfigHash = "cfg-1-reparameterized"
	res, err = Run(jobs, Options{Workers: 1, Cache: testCache(t, dir, "src-v2")})
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedCount() != 2 || ran.Load() != 7 {
		t.Fatalf("config change: cached=%d runs=%d, want 2 and 7", res.CachedCount(), ran.Load())
	}
}

func TestSourceHashStableAndSensitive(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module x\n")
	write("a.go", "package x\n")
	write("sub/b.go", "package sub\n")
	write("sub/testdata/ignored.go", "package ignored\n")
	write(".hidden/c.go", "package hidden\n")
	write("README.md", "not source\n")

	h1, err := SourceHash(root)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := SourceHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("source hash not stable across calls")
	}

	// Non-source and skipped-directory edits do not change the hash.
	write("README.md", "still not source\n")
	write("sub/testdata/ignored.go", "package changed\n")
	write(".hidden/c.go", "package changed\n")
	if h3, _ := SourceHash(root); h3 != h1 {
		t.Error("hash changed on non-source / testdata / dot-dir edits")
	}

	// A source edit does.
	write("sub/b.go", "package sub // edited\n")
	if h4, _ := SourceHash(root); h4 == h1 {
		t.Error("hash unchanged after .go edit")
	}
}

// TestOrderedStopsDispatchAtFirstError: a failure stops dispatch, so
// no index after it starts beyond the calls already running; the
// results before it are delivered in order, and its error returned.
func TestOrderedStopsDispatchAtFirstError(t *testing.T) {
	const n, fail, workers = 100, 3, 2
	boom := errors.New("boom")
	var calls atomic.Int64
	var delivered []int
	err := Ordered(context.Background(), n, workers,
		func(ctx context.Context, i int) (int, error) {
			calls.Add(1)
			if i == fail {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		},
		func(i, v int) { delivered = append(delivered, v) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing call's", err)
	}
	if got := calls.Load(); got > fail+workers {
		t.Fatalf("%d calls started; dispatch should stop within %d of the failure", got, workers)
	}
	for i, v := range delivered {
		if v != i || i >= fail {
			t.Fatalf("delivered %v, want exactly the indices before %d in order", delivered, fail)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls.Store(0)
	err = Ordered(ctx, n, workers, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, nil
	}, func(int, int) { t.Error("delivered under a canceled context") })
	if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("canceled ctx: err=%v calls=%d, want context.Canceled and none", err, calls.Load())
	}
}
