package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cachesync/internal/portfile"
	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

// openCache opens a result cache rooted in its own temp dir.
func openCache(t *testing.T, dir string) *runner.Cache {
	t.Helper()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func getHeader(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestXCacheHeader pins the X-Cache contract: first execution is a
// miss, a repeat with a result cache is a hit, and concurrent
// identical requests mark exactly the followers as coalesced.
func TestXCacheHeader(t *testing.T) {
	cache := openCache(t, filepath.Join(t.TempDir(), "cache"))
	_, ts := newTestServer(t, Config{Workers: 2, Cache: cache})

	cfg := simrun.Config{Protocol: "bitar", Ops: 150, Seed: 77}
	code, hdr, _ := postJSON(t, ts.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first request: code=%d X-Cache=%q, want 200/miss", code, hdr.Get("X-Cache"))
	}
	code, hdr, _ = postJSON(t, ts.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat request: code=%d X-Cache=%q, want 200/hit", code, hdr.Get("X-Cache"))
	}
}

// TestCacheSurvivesRestart: a daemon dropped without Close leaves every
// result it stored to the next daemon over the same cache directory,
// which answers an earlier simulate as a hit, byte-identical to the
// first daemon's own cache hit but for the job id.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	first := New(Config{Workers: 2, Cache: openCache(t, dir)})
	ts1 := httptest.NewServer(first.Handler())
	t.Cleanup(func() {
		ts1.Close()
		first.Close()
	})
	cfg := simrun.Config{Protocol: "illinois", Ops: 300, Seed: 83}
	if code, hdr, body := postJSON(t, ts1.URL+"/v1/simulate", cfg); code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first daemon: code=%d X-Cache=%q (%s), want 200/miss", code, hdr.Get("X-Cache"), body)
	}
	code, hdr, hit := postJSON(t, ts1.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("first daemon repeat: code=%d X-Cache=%q, want 200/hit", code, hdr.Get("X-Cache"))
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, Cache: openCache(t, dir)})
	code, hdr, again := postJSON(t, ts2.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("restarted daemon: code=%d X-Cache=%q, want 200/hit", code, hdr.Get("X-Cache"))
	}
	// Every field but the daemon-local job id must match byte for byte.
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(again, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit, &b); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("restarted daemon's hit has other fields:\n%s\nvs\n%s", again, hit)
	}
	for k, v := range b {
		if k != "job" && !bytes.Equal(a[k], v) {
			t.Fatalf("restarted daemon's hit differs in %q:\n%s\nvs\n%s", k, a[k], v)
		}
	}
}

// TestXCacheCoalesced: among concurrent identical uncached requests,
// followers carry X-Cache: coalesced.
func TestXCacheCoalesced(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cfg := simrun.Config{Protocol: "illinois", Ops: 400, Seed: 31}
	const n = 6
	var wg sync.WaitGroup
	headers := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, _ := postJSON(t, ts.URL+"/v1/simulate", cfg)
			if code == http.StatusOK {
				headers[i] = hdr.Get("X-Cache")
			}
		}(i)
	}
	wg.Wait()
	var miss, coal int
	for _, h := range headers {
		switch h {
		case "miss":
			miss++
		case "coalesced":
			coal++
		}
	}
	// Scheduling may let some requests arrive after the leader
	// finished (they re-execute as misses); what must never happen is
	// zero coalescing with zero extra misses, or an unlabeled success.
	if miss+coal != n {
		t.Fatalf("X-Cache headers = %q: %d miss + %d coalesced != %d requests", headers, miss, coal, n)
	}
	if miss < 1 {
		t.Fatalf("no leader marked miss among %q", headers)
	}
}

// TestArtifactEndpoint: raw entries are served by key, bad keys are
// rejected, unknown keys 404, and a cacheless daemon has no artifacts.
func TestArtifactEndpoint(t *testing.T) {
	cache := openCache(t, filepath.Join(t.TempDir(), "cache"))
	_, ts := newTestServer(t, Config{Workers: 1, Cache: cache})

	cfg := simrun.Config{Protocol: "bitar", Ops: 120, Seed: 5}.Normalize()
	if code, _, body := postJSON(t, ts.URL+"/v1/simulate", cfg); code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, body)
	}
	key := cache.KeyFor("simulate", "simulate|"+cfg.Hash())
	code, hdr, body := getHeader(t, ts.URL+"/v1/artifact/"+key)
	if code != http.StatusOK {
		t.Fatalf("artifact by key: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("artifact content type %q", ct)
	}
	job, _, ok := runner.DecodeEntry(body)
	if !ok {
		t.Fatalf("artifact body is not an entry: %q", body)
	}
	if job.Name != "simulate" || job.ConfigHash != "simulate|"+cfg.Hash() {
		t.Fatalf("entry stored for job %q, config hash %q", job.Name, job.ConfigHash)
	}

	if code, _, _ := getHeader(t, ts.URL+"/v1/artifact/zz"); code != http.StatusBadRequest {
		t.Fatalf("short key: %d, want 400", code)
	}
	unknown := strings.Repeat("a", 64)
	if code, _, _ := getHeader(t, ts.URL+"/v1/artifact/"+unknown); code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", code)
	}

	_, noCache := newTestServer(t, Config{Workers: 1})
	if code, _, _ := getHeader(t, noCache.URL+"/v1/artifact/"+unknown); code != http.StatusNotFound {
		t.Fatalf("cacheless daemon: %d, want 404", code)
	}
}

// TestPeerArtifactExchange is the fleet cache story end to end: two
// daemons with separate cache directories discover each other through
// a shared portfile directory; after A computes a configuration, B's
// first request for it is a fleet-wide hit served from A's cache —
// X-Cache: hit, peer-hit counter incremented, entry landed in B's own
// cache for subsequent local hits.
func TestPeerArtifactExchange(t *testing.T) {
	peerDir := t.TempDir()

	cacheA := openCache(t, filepath.Join(t.TempDir(), "cache-a"))
	peersA := NewPeerSource(peerDir)
	_, tsA := newTestServer(t, Config{Workers: 1, Cache: cacheA, Peers: peersA})
	addrA := strings.TrimPrefix(tsA.URL, "http://")
	peersA.SetSelf(addrA)
	if err := portfile.Write(filepath.Join(peerDir, "a.port"), addrA); err != nil {
		t.Fatal(err)
	}

	cacheB := openCache(t, filepath.Join(t.TempDir(), "cache-b"))
	peersB := NewPeerSource(peerDir)
	sB, tsB := newTestServer(t, Config{Workers: 1, Cache: cacheB, Peers: peersB})
	addrB := strings.TrimPrefix(tsB.URL, "http://")
	peersB.SetSelf(addrB)
	if err := portfile.Write(filepath.Join(peerDir, "b.port"), addrB); err != nil {
		t.Fatal(err)
	}

	cfg := simrun.Config{Protocol: "goodman", Ops: 130, Seed: 9}
	code, hdr, bodyA := postJSON(t, tsA.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("A first: code=%d X-Cache=%q", code, hdr.Get("X-Cache"))
	}

	code, hdr, bodyB := postJSON(t, tsB.URL+"/v1/simulate", cfg)
	if code != http.StatusOK {
		t.Fatalf("B: code=%d %s", code, bodyB)
	}
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Fatalf("B X-Cache = %q, want hit (served from A's cache)", got)
	}
	if n := sB.met.peerHits.Load(); n != 1 {
		t.Fatalf("B peer hits = %d, want 1", n)
	}
	var ra, rb SimulateResponse
	if err := json.Unmarshal(bodyA, &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyB, &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Output != rb.Output || ra.Cycles != rb.Cycles {
		t.Fatal("peer-served result differs from the origin's")
	}

	// Entry landed locally: a repeat on B needs no peer traffic.
	code, hdr, _ = postJSON(t, tsB.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("B repeat: code=%d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	if n := sB.met.peerHits.Load(); n != 1 {
		t.Fatalf("B peer hits grew to %d on a local hit", n)
	}
}

// TestPeerJunkIsAMiss: a peer that answers /v1/artifact/ with bytes
// that are no entry, here a stub replica that says "junk" to every
// key, neither serves the request nor counts as a peer hit. The daemon
// computes, replies X-Cache: miss with the simulation's own result,
// and counts one cache miss and no peer hit.
func TestPeerJunkIsAMiss(t *testing.T) {
	peerDir := t.TempDir()
	var asked atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/artifact/") {
			asked.Add(1)
		}
		_, _ = w.Write([]byte("junk"))
	}))
	t.Cleanup(stub.Close)
	if err := portfile.Write(filepath.Join(peerDir, "stub.port"), strings.TrimPrefix(stub.URL, "http://")); err != nil {
		t.Fatal(err)
	}
	peers := NewPeerSource(peerDir)
	_, ts := newTestServer(t, Config{Workers: 1, Cache: openCache(t, filepath.Join(t.TempDir(), "cache")), Peers: peers})
	peers.SetSelf(strings.TrimPrefix(ts.URL, "http://"))

	cfg := simrun.Config{Protocol: "dragon", Ops: 140, Seed: 11}
	code, hdr, body := postJSON(t, ts.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("code=%d X-Cache=%q (%s), want 200/miss", code, hdr.Get("X-Cache"), body)
	}
	if asked.Load() == 0 {
		t.Fatal("the daemon never asked its peer")
	}
	want, err := simrun.Run(context.Background(), cfg.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	var got SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output || got.Cycles != want.Cycles || got.Pass != want.Pass {
		t.Fatalf("reply is not the simulation's result: cycles %d pass %v, want %d %v",
			got.Cycles, got.Pass, want.Cycles, want.Pass)
	}
	_, _, metrics := getHeader(t, ts.URL+"/metrics")
	for _, line := range []string{"cachesyncd_peer_hits_total 0\n", "cachesyncd_cache_misses_total 1\n"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics lack %q:\n%s", line, metrics)
		}
	}
}

// TestPeerJunkHidesNoPeer: a peer whose artifact body the cache
// rejects is skipped like a peer that missed, so the next peer's
// genuine entry still serves the request. Of two stub peers the one
// probed first (the lower address) answers junk, the other the entry
// a separate daemon stored for the same configuration; the reply is a
// hit, counted as one peer hit and no cache miss.
func TestPeerJunkHidesNoPeer(t *testing.T) {
	cfg := simrun.Config{Protocol: "dragon", Ops: 140, Seed: 12}
	origin := openCache(t, filepath.Join(t.TempDir(), "origin"))
	_, tsOrigin := newTestServer(t, Config{Workers: 1, Cache: origin})
	if code, _, body := postJSON(t, tsOrigin.URL+"/v1/simulate", cfg); code != http.StatusOK {
		t.Fatalf("origin simulate: %d %s", code, body)
	}
	key := origin.KeyFor("simulate", "simulate|"+cfg.Normalize().Hash())
	code, _, entry := getHeader(t, tsOrigin.URL+"/v1/artifact/"+key)
	if code != http.StatusOK {
		t.Fatalf("origin artifact: %d %s", code, entry)
	}

	var junkAsked, entryAsked atomic.Int64
	junk := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		junkAsked.Add(1)
		_, _ = w.Write([]byte("junk"))
	})
	genuine := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/artifact/"+key {
			http.NotFound(w, r)
			return
		}
		entryAsked.Add(1)
		_, _ = w.Write(entry)
	})
	a, b := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	addrA, addrB := a.Listener.Addr().String(), b.Listener.Addr().String()
	if addrA < addrB {
		a.Config.Handler, b.Config.Handler = junk, genuine
	} else {
		a.Config.Handler, b.Config.Handler = genuine, junk
	}
	peerDir := t.TempDir()
	for name, srv := range map[string]*httptest.Server{"a": a, "b": b} {
		srv.Start()
		t.Cleanup(srv.Close)
		if err := portfile.Write(filepath.Join(peerDir, name+".port"), srv.Listener.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}

	peers := NewPeerSource(peerDir)
	_, ts := newTestServer(t, Config{Workers: 1, Cache: openCache(t, filepath.Join(t.TempDir(), "cache")), Peers: peers})
	peers.SetSelf(strings.TrimPrefix(ts.URL, "http://"))
	code, hdr, body := postJSON(t, ts.URL+"/v1/simulate", cfg)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("code=%d X-Cache=%q (%s), want 200/hit from the second peer", code, hdr.Get("X-Cache"), body)
	}
	if junkAsked.Load() != 1 || entryAsked.Load() != 1 {
		t.Fatalf("junk peer asked %d times, genuine peer %d; want 1 and 1", junkAsked.Load(), entryAsked.Load())
	}
	_, _, metrics := getHeader(t, ts.URL+"/metrics")
	for _, line := range []string{"cachesyncd_peer_hits_total 1\n", "cachesyncd_cache_misses_total 0\n"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics lack %q:\n%s", line, metrics)
		}
	}
}

// TestPerRouteMetrics: /metrics exposes per-route request counts and
// latency sums.
func TestPerRouteMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, _, _ := postJSON(t, ts.URL+"/v1/simulate", simrun.Config{Protocol: "bitar", Ops: 100}); code != http.StatusOK {
		t.Fatal("simulate failed")
	}
	_, _, body := getHeader(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		`cachesyncd_requests_total{route="POST /v1/simulate"} 1`,
		`cachesyncd_route_seconds_count{route="POST /v1/simulate"} 1`,
		`cachesyncd_route_seconds_sum{route="POST /v1/simulate"}`,
		"cachesyncd_cache_misses_total 1",
		"cachesyncd_peer_hits_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestSweepCells: a sweep names its cells only through its protocol,
// procs and remotes lists, so the strict decoder refuses a body with a
// cells field, alone or beside the lists.
func TestSweepCells(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"cells":[{"protocol":"bitar","procs":2},{"protocol":"illinois","procs":1}],"ops":100,"seed":3}`,
		`{"cells":[{"protocol":"bitar","procs":2}],"protocols":["illinois"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", body, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), "cells") {
			t.Fatalf("%s: error %s does not name the field", body, msg)
		}
	}
}
