package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachesync/internal/runner"
	"cachesync/internal/serve"
	"cachesync/internal/simrun"
)

// backend is one in-process replica for attach-mode cluster tests.
type backend struct {
	srv  *serve.Server
	ts   *httptest.Server
	addr string
}

func newBackend(t *testing.T) *backend {
	t.Helper()
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return &backend{srv: srv, ts: ts, addr: strings.TrimPrefix(ts.URL, "http://")}
}

// newAttachCluster builds a coordinator over already-running backends
// with fast health probes, and serves its router on httptest.
func newAttachCluster(t *testing.T, addrs ...string) (*Cluster, *httptest.Server) {
	t.Helper()
	c, err := New(Options{
		Attach:         addrs,
		HealthInterval: 40 * time.Millisecond,
		FailAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func postSim(t *testing.T, url string, cfg simrun.Config) (int, http.Header, []byte) {
	t.Helper()
	return postBody(t, url+"/v1/simulate", cfg)
}

// postBody posts v as JSON and returns the status, headers and body.
func postBody(t *testing.T, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// configOwnedBy searches seeds until it finds a config whose ring
// owner is the named replica.
func configOwnedBy(t *testing.T, c *Cluster, name string) simrun.Config {
	t.Helper()
	for seed := int64(1); seed < 500; seed++ {
		cfg := simrun.Config{Protocol: "bitar", Ops: 120, Seed: seed}.Normalize()
		if c.ring.pick(serve.SimulateKey(cfg))[0] == name {
			return cfg
		}
	}
	t.Fatalf("no config owned by %s in 500 seeds", name)
	return simrun.Config{}
}

// TestClusterAffinity: identical requests land on the ring owner every
// time (X-Replica constant), so dedup and caching concentrate; the
// second request is a cache hit. A check's owner is the owner of
// CheckRequest.Hash, the key the replica caches it under: the check
// here is owned by another replica under a key with "check|" written
// twice, so a router that prefixes the kind again sends it elsewhere.
func TestClusterAffinity(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, b1.addr)

	affine := func(what, path string, body any, owner string) {
		t.Helper()
		var replicas []string
		for i := 0; i < 3; i++ {
			code, hdr, reply := postBody(t, ts.URL+path, body)
			if code != http.StatusOK {
				t.Fatalf("%s via router: %d %s", what, code, reply)
			}
			replicas = append(replicas, hdr.Get("X-Replica"))
			if i > 0 && hdr.Get("X-Cache") != "hit" {
				t.Fatalf("%s repeat %d: X-Cache=%q, want hit", what, i, hdr.Get("X-Cache"))
			}
		}
		for _, r := range replicas {
			if r != owner {
				t.Fatalf("%s affinity broken: owner %s, routed to %v", what, owner, replicas)
			}
		}
	}
	for _, owner := range []string{"a0", "a1"} {
		affine("simulate", "/v1/simulate", configOwnedBy(t, c, owner), owner)
	}
	for depth := 1; ; depth++ {
		cr := serve.CheckRequest{Protocol: "illinois", Depth: depth}.Normalize()
		owner := c.ring.pick(cr.Hash())[0]
		if owner != c.ring.pick("check|" + cr.Hash())[0] {
			affine("check", "/v1/check", cr, owner)
			break
		}
		if depth == 12 {
			t.Fatal("no check depth in [1,12] whose owner moves under a doubled prefix")
		}
	}
}

// TestClusterReroute: when the owning backend dies, its keys reroute
// to the survivor with no client-visible failure.
func TestClusterReroute(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, b1.addr)

	cfg := configOwnedBy(t, c, "a0")
	if code, hdr, _ := postSim(t, ts.URL, cfg); code != http.StatusOK || hdr.Get("X-Replica") != "a0" {
		t.Fatalf("pre-kill: code=%d replica=%q", code, hdr.Get("X-Replica"))
	}

	b0.ts.Close()
	code, hdr, body := postSim(t, ts.URL, cfg)
	if code != http.StatusOK {
		t.Fatalf("post-kill simulate: %d %s", code, body)
	}
	if got := hdr.Get("X-Replica"); got != "a1" {
		t.Fatalf("post-kill routed to %q, want a1", got)
	}
	if c.met.reroutes.Load() == 0 && c.met.ejections.Load() == 0 {
		t.Fatal("kill left no reroute/ejection evidence in metrics")
	}
}

// TestClusterReadmission: a replica ejected on routing evidence is
// re-admitted by the health loop once probes succeed, restoring its
// old key range (same ring position).
func TestClusterReadmission(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, b1.addr)

	cfg := configOwnedBy(t, c, "a0")
	rep := c.replicas["a0"]
	rep.healthy.Store(false) // simulated ejection; the process is fine

	if code, hdr, _ := postSim(t, ts.URL, cfg); code != http.StatusOK || hdr.Get("X-Replica") != "a1" {
		t.Fatalf("while ejected: code=%d replica=%q, want 200/a1", code, hdr.Get("X-Replica"))
	}

	deadline := time.Now().Add(3 * time.Second)
	for !rep.healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("health loop never re-admitted a live replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.met.readmissions.Load() == 0 {
		t.Fatal("re-admission not counted")
	}
	if code, hdr, _ := postSim(t, ts.URL, cfg); code != http.StatusOK || hdr.Get("X-Replica") != "a0" {
		t.Fatalf("after re-admission: code=%d replica=%q, want 200/a0 (affinity restored)", code, hdr.Get("X-Replica"))
	}
}

// TestClusterDeadAttach: a roster with one dead address still starts,
// ejects the dead member, and serves from the live one; aggregate
// healthz reports the split.
func TestClusterDeadAttach(t *testing.T) {
	b0 := newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, "127.0.0.1:1")

	if n := c.healthyCount(); n != 1 {
		t.Fatalf("healthy = %d, want 1", n)
	}
	code, _, _ := postSim(t, ts.URL, simrun.Config{Protocol: "bitar", Ops: 100, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("simulate with half-dead fleet: %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK      bool `json:"ok"`
		Healthy int  `json:"healthy"`
		Total   int  `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Healthy != 1 || hz.Total != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// TestClusterNoHealthy: a fleet with nothing alive refuses to start.
func TestClusterNoHealthy(t *testing.T) {
	if _, err := New(Options{Attach: []string{"127.0.0.1:1"}, StartTimeout: time.Second}); err == nil {
		t.Fatal("New succeeded with a dead-only roster")
	}
}

// postSweep posts a sweep through url and decodes the response.
func postSweep(t *testing.T, url string, req serve.SweepRequest) (http.Header, serve.SweepResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr serve.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep via %s: code=%d err=%v", url, resp.StatusCode, err)
	}
	return resp.Header, sr
}

// TestClusterSweepMerge: a sweep is one cache entry, so the router
// forwards it whole to the replica owning its key. The answer is
// exactly one replica's points, tagged with who served it and how,
// and a repeat is a cache hit on the same replica.
func TestClusterSweepMerge(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, b1.addr)

	req := serve.SweepRequest{Protocols: []string{"bitar", "illinois", "goodman"}, Procs: []int{1, 2}, Ops: 100, Seed: 7}
	hdr, routed := postSweep(t, ts.URL, req)
	single := newBackend(t)
	_, ref := postSweep(t, single.ts.URL, req)

	if len(routed.Points) != len(ref.Points) {
		t.Fatalf("routed %d points, single replica %d", len(routed.Points), len(ref.Points))
	}
	for i := range ref.Points {
		if routed.Points[i] != ref.Points[i] {
			t.Fatalf("point %d: routed %+v vs single %+v", i, routed.Points[i], ref.Points[i])
		}
	}
	if routed.Pass != ref.Pass {
		t.Fatalf("routed pass=%v, single replica pass=%v", routed.Pass, ref.Pass)
	}

	cfgs, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	owner := c.ring.pick(serve.SweepKey(cfgs))[0]
	if got := hdr.Get("X-Replica"); got != owner {
		t.Fatalf("sweep served by %q, want the key's owner %s", got, owner)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Fatalf("first sweep X-Cache=%q, want miss", got)
	}
	hdr, again := postSweep(t, ts.URL, req)
	if hdr.Get("X-Cache") != "hit" || hdr.Get("X-Replica") != owner {
		t.Fatalf("repeat sweep: X-Cache=%q X-Replica=%q, want hit from %s",
			hdr.Get("X-Cache"), hdr.Get("X-Replica"), owner)
	}
	if len(again.Points) != len(ref.Points) || again.Points[0] != ref.Points[0] {
		t.Fatalf("repeat sweep points %+v differ from %+v", again.Points, ref.Points)
	}
}

// acceptAsync posts body to path?async=1 through url and returns the
// job id and the replica that accepted it.
func acceptAsync(t *testing.T, url, path string, body any) (job, replica string) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url+path+"?async=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil || resp.StatusCode != http.StatusAccepted || acc.Job == "" {
		t.Fatalf("async accept: code=%d job=%q err=%v", resp.StatusCode, acc.Job, err)
	}
	return acc.Job, resp.Header.Get("X-Replica")
}

// streamJob follows a job's NDJSON stream through url to its end and
// returns its events and the replica that served the stream.
func streamJob(t *testing.T, url, job string) ([]serve.JobEvent, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s via router: %d", job, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("job stream content type %q", ct)
	}
	var evs []serve.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs, resp.Header.Get("X-Replica")
}

// TestClusterSweepStream: ?async=1 through the router hands back the
// accepting replica's job id, and the job stream found through the
// router is that replica's, carrying one progress event per cell in
// cell order before the terminal event.
func TestClusterSweepStream(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	_, ts := newAttachCluster(t, b0.addr, b1.addr)

	req := serve.SweepRequest{Protocols: []string{"bitar", "illinois", "goodman", "firefly"}, Procs: []int{1, 2}, Ops: 100, Seed: 11}
	job, accepted := acceptAsync(t, ts.URL, "/v1/sweep", req)
	if accepted == "" {
		t.Fatal("async accept carries no X-Replica")
	}
	evs, streamed := streamJob(t, ts.URL, job)
	if streamed != accepted {
		t.Fatalf("job %s accepted by %s but streamed from %s", job, accepted, streamed)
	}

	var progress []string
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.T == "progress" {
			progress = append(progress, ev.Msg)
		}
	}
	if last := evs[len(evs)-1]; last.T != "done" || !strings.HasPrefix(last.Msg, "pass=true") {
		t.Fatalf("stream ended with %+v, want done pass=true", last)
	}
	cells := []string{"bitar p=1", "bitar p=2", "illinois p=1", "illinois p=2",
		"goodman p=1", "goodman p=2", "firefly p=1", "firefly p=2"}
	if len(progress) != len(cells) {
		t.Fatalf("%d progress events, want one per cell:\n%s", len(progress), strings.Join(progress, "\n"))
	}
	for i, cell := range cells {
		if want := fmt.Sprintf("%d/%d %s:", i+1, len(cells), cell); !strings.HasPrefix(progress[i], want) {
			t.Fatalf("progress event %d is %q, want cell order (%q...)", i, progress[i], want)
		}
	}
}

// TestClusterJobBroadcast: an async job accepted by one replica is
// findable through the coordinator without knowing which replica runs
// it — even after every replica has minted jobs of its own, so a
// replica-local counter would give two replicas the same id.
func TestClusterJobBroadcast(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	c, ts := newAttachCluster(t, b0.addr, b1.addr)

	// Synchronous requests mint jobs on both replicas: one on a1, and
	// on a0 one plus a cached repeat, so a0 is a job ahead of a1.
	for _, owner := range []string{"a0", "a0", "a1"} {
		if code, hdr, body := postSim(t, ts.URL, configOwnedBy(t, c, owner)); code != http.StatusOK || hdr.Get("X-Replica") != owner {
			t.Fatalf("warm %s: code=%d replica=%q %s", owner, code, hdr.Get("X-Replica"), body)
		}
	}
	// a1, second in roster order, accepts the async job: its second
	// job, as a0's cached repeat was a0's.
	cfg := configOwnedBy(t, c, "a1")
	cfg.Seed += 1000
	for c.ring.pick(serve.SimulateKey(cfg))[0] != "a1" {
		cfg.Seed++
	}
	job, accepted := acceptAsync(t, ts.URL, "/v1/simulate", cfg)
	if accepted != "a1" {
		t.Fatalf("async simulate accepted by %q, want a1", accepted)
	}
	evs, streamed := streamJob(t, ts.URL, job)
	if streamed != "a1" {
		t.Fatalf("job %s accepted by a1 but streamed from %s", job, streamed)
	}
	if len(evs) == 0 || (evs[len(evs)-1].T != "done" && evs[len(evs)-1].T != "error") {
		t.Fatalf("job stream never finished: %+v", evs)
	}

	if r, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: %d, want 404", r.StatusCode)
		}
	}
}

// TestClusterMetrics: the coordinator's exposition includes per-replica
// routing counters and fleet health.
func TestClusterMetrics(t *testing.T) {
	b0 := newBackend(t)
	_, ts := newAttachCluster(t, b0.addr)
	if code, _, _ := postSim(t, ts.URL, simrun.Config{Protocol: "bitar", Ops: 100, Seed: 2}); code != http.StatusOK {
		t.Fatal("simulate failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		`cachesyncc_routed_total{replica="a0"} 1`,
		"cachesyncc_healthy 1",
		"cachesyncc_reroutes_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestOptionsValidation covers the constructor's refusals.
func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},
		{Spawn: 1},
		{Spawn: 1, Binary: "x"},
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Fatalf("case %d: New(%+v) succeeded", i, o)
		}
	}
}
