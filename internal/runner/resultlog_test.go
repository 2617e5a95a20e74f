package runner

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// ownSegment returns the path of the segment c appends to.
func ownSegment(t *testing.T, c *Cache) string {
	t.Helper()
	if c.log.own < 0 {
		t.Fatal("cache has written no segment")
	}
	return c.log.segs[c.log.own].f.Name()
}

func logJob(i int) (Job, Artifact) {
	return Job{Name: "simulate", ConfigHash: fmt.Sprintf("cfg-%d", i)},
		Artifact{Name: "simulate", Output: fmt.Sprintf("result %d\n", i), Pass: true}
}

// wantHits checks which of logJob(0..) c serves, and that every hit is
// the job's own artifact.
func wantHits(t *testing.T, name string, c *Cache, hits ...bool) {
	t.Helper()
	for i, want := range hits {
		j, art := logJob(i)
		got, ok := c.Get(j)
		if ok != want {
			t.Errorf("%s: entry %d hit=%v, want %v", name, i, ok, want)
		}
		if ok && got != art {
			t.Errorf("%s: entry %d served %+v, want %+v", name, i, got, art)
		}
	}
}

// TestLogTornTailLosesOnlyThatRecord: a segment cut mid-record, as a
// SIGKILL during a write leaves it, loses only the cut record; a new
// instance's Put of it lands and reads back, there and after reopening.
func TestLogTornTailLosesOnlyThatRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	a := testCache(t, dir, "src-torn")
	for i := 0; i < 3; i++ {
		a.Put(logJob(i))
	}
	seg := ownSegment(t, a)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	b := testCache(t, dir, "src-torn")
	wantHits(t, "after the cut", b, true, true, false)
	b.Put(logJob(2))
	wantHits(t, "after the re-put", b, true, true, true)
	wantHits(t, "reopened", testCache(t, dir, "src-torn"), true, true, true)
}

// TestLogFlippedByteIsAMiss: one flipped byte in a record's key or body
// makes that entry a miss — for the instance that wrote it and for one
// that opens the segment afterwards — never a wrong artifact. The body
// byte is in the artifact's output text, which no field check covers.
func TestLogFlippedByteIsAMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(seg []byte) int // offset of the byte to flip
	}{
		{"key", func([]byte) int { return 4 + 7 }},
		{"body", func(seg []byte) int { return bytes.Index(seg, []byte("result 0")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			a := testCache(t, dir, "src-flip")
			a.Put(logJob(0))
			a.Put(logJob(1))
			path := ownSegment(t, a)
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := tc.at(seg)
			if at < 0 || at >= len(seg) {
				t.Fatalf("no byte to flip at %d", at)
			}
			seg[at] ^= 0x20
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}

			wantHits(t, "writer", a, false, true)
			// The scan stops the segment at the damaged record, so a new
			// instance misses both; it must serve neither wrongly.
			wantHits(t, "reopened", testCache(t, dir, "src-flip"), false, false)
		})
	}
}

// TestLogInstancesShareLive: two instances over one directory see each
// other's Puts without reopening — a new segment and a grown one alike
// — and a reopened cache serves every earlier entry.
func TestLogInstancesShareLive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	a := testCache(t, dir, "src-share")
	b := testCache(t, dir, "src-share")

	a.Put(logJob(0))
	wantHits(t, "b sees a's new segment", b, true)
	b.Put(logJob(1))
	wantHits(t, "a sees b's new segment", a, true, true)
	a.Put(logJob(2))
	b.Put(logJob(3))
	wantHits(t, "b sees a's grown segment", b, true, true, true, true)
	wantHits(t, "a sees b's grown segment", a, true, true, true, true)

	wantHits(t, "reopened", testCache(t, dir, "src-share"), true, true, true, true)
	if other := testCache(t, dir, "src-other"); len(other.log.segs) != 0 {
		t.Errorf("a cache of another source tree opened %d segments, want 0", len(other.log.segs))
	}
}

// TestLogUncreatableDirAlwaysMisses: when no segment can be created —
// here the directory is replaced by a plain file after open, since
// permission bits do not bind a root test process — the cache degrades
// to an always-miss cache with no error or panic.
func TestLogUncreatableDirAlwaysMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := testCache(t, dir, "src-ro")
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for i := 0; i < 2; i++ {
		j, art := logJob(0)
		got, cached, _, err := c.Do(j, func() (Artifact, error) {
			runs++
			return art, nil
		})
		if err != nil || cached || got != art {
			t.Fatalf("Do %d: cached=%v err=%v art=%+v", i, cached, err, got)
		}
	}
	if runs != 2 {
		t.Fatalf("ran %d times, want 2 (nothing can be stored)", runs)
	}
	wantHits(t, "after puts", c, false)
	key := c.KeyFor("simulate", "cfg-0")
	if _, ok := c.GetRaw(key); ok {
		t.Fatal("GetRaw hit in a cache that could store nothing")
	}
}

// TestKeydirBytesPerEntry gates the keydir's memory: 16 B a slot, at
// most 43 B an entry with the empty slots counted (the table is at
// least 3/8 full), for the twenty thousand entries a serve-miss run
// leaves, and every entry still found.
func TestKeydirBytesPerEntry(t *testing.T) {
	const n = 20_000
	var kd keydir
	key := func(i int) [32]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	for i := 0; i < n; i++ {
		k := key(i)
		kd.put(kdTag(&k, 1+i%1000), kdLoc(i%3, int64(i)*100))
	}
	if kd.n != n {
		t.Fatalf("keydir holds %d entries, want %d", kd.n, n)
	}
	for i := 0; i < n; i++ {
		k := key(i)
		tag, loc, ok := kd.get(kdTag(&k, 0))
		if !ok || tag&kdLenMask != uint64(1+i%1000) || loc != kdLoc(i%3, int64(i)*100) {
			t.Fatalf("entry %d: ok=%v tag=%x loc=%x", i, ok, tag, loc)
		}
	}
	bpe := float64(8*len(kd.slots)) / n
	t.Logf("%d entries: %d slots, %.1f B per entry", n, len(kd.slots)/2, bpe)
	if bpe > 43 {
		t.Errorf("keydir costs %.1f B per entry, limit 43", bpe)
	}
}

// TestLogConcurrentReadersAndWriters runs appends on two instances over
// one directory while both read each other's entries, so the race
// detector sees refreshes, scans and appends interleave. Every entry
// must be served whole by the end.
func TestLogConcurrentReadersAndWriters(t *testing.T) {
	const n = 100
	dir := filepath.Join(t.TempDir(), "cache")
	caches := []*Cache{testCache(t, dir, "src-race"), testCache(t, dir, "src-race")}
	var wg sync.WaitGroup
	for w, c := range caches {
		wg.Add(2)
		go func(w int, c *Cache) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				c.Put(logJob(i))
			}
		}(w, c)
		go func(c *Cache) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j, art := logJob(i)
				if got, ok := c.Get(j); ok && got != art {
					t.Errorf("entry %d served %+v", i, got)
				}
			}
		}(c)
	}
	wg.Wait()
	hits := make([]bool, n)
	for i := range hits {
		hits[i] = true
	}
	wantHits(t, "first instance", caches[0], hits...)
	wantHits(t, "second instance", caches[1], hits...)
}
