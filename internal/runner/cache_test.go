package runner

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheDoSingleFlightStress races N goroutines on one cache key:
// exactly one may execute the job; everyone must receive the same
// artifact; and the stored entry must be a complete, valid record.
func TestCacheDoSingleFlightStress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := testCache(t, dir, "src-stress")

	const n = 64
	var execs atomic.Int64
	gate := make(chan struct{})
	j := Job{Name: "hot", ConfigHash: "cfg"}
	run := func() (Artifact, error) {
		<-gate // hold every racer in one flight
		execs.Add(1)
		return Artifact{Name: "hot", Output: "expensive result\n", Pass: true}, nil
	}

	var wg sync.WaitGroup
	arts := make([]Artifact, n)
	errs := make([]error, n)
	shareds := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], _, shareds[i], errs[i] = c.Do(j, run)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("ran the job %d times under single flight, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if arts[i].Output != "expensive result\n" {
			t.Fatalf("racer %d got %q", i, arts[i].Output)
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d racers report shared=false, want 1", leaders)
	}

	// The stored entry must be complete and valid.
	if art, ok := c.Get(j); !ok || art.Output != "expensive result\n" {
		t.Fatalf("cache entry after stress: ok=%v art=%+v", ok, art)
	}
}

// TestCachePutConcurrentSameKey hammers raw Put from many goroutines —
// the shape of the cross-process race, where single flight cannot help
// — and asserts that the entry is whole both here and for a second
// instance that finds it by scanning the segment.
func TestCachePutConcurrentSameKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := testCache(t, dir, "src-put")
	j := Job{Name: "contended", ConfigHash: "cfg"}

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Same key, same body: the last record wins, any is valid.
			c.Put(j, Artifact{Name: "contended", Output: "payload\n", Pass: true})
		}(i)
	}
	wg.Wait()

	for name, cc := range map[string]*Cache{"writer": c, "second instance": testCache(t, dir, "src-put")} {
		if art, ok := cc.Get(j); !ok || art.Output != "payload\n" || !art.Pass {
			t.Fatalf("%s: entry after concurrent puts: ok=%v art=%+v", name, ok, art)
		}
	}
}
