package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cachesync/internal/mcheck"
	_ "cachesync/internal/protocol/all"
	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

// newTestServer builds a Server and an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts body and returns the status plus decoded response.
func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// waitBusy polls until the server has n busy execution slots — the
// synchronization point for "a slow request is definitely running".
func waitBusy(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.gate.InUse() < n {
		if time.Now().After(deadline) {
			t.Fatalf("slot never became busy (in use: %d, want %d)", s.gate.InUse(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimulateMatchesCLI pins the tentpole contract: the daemon's
// /v1/simulate output is byte-identical to what cmd/cachesim prints
// for the same configuration (both delegate to internal/simrun, and
// this test would catch either side drifting).
func TestSimulateMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Cache: nil})

	for _, cfg := range []simrun.Config{
		{Protocol: "bitar", Ops: 300, Seed: 3},
		{Protocol: "illinois", Procs: 2, Workload: "lock", Iters: 10, Seed: 5},
		{Protocol: "goodman", Ops: 200, Seed: 9, LogN: 4},
	} {
		want, err := simrun.Run(context.Background(), cfg.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		code, _, body := postJSON(t, ts.URL+"/v1/simulate", cfg)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", cfg.Protocol, code, body)
		}
		var resp SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Output != want.Output {
			t.Fatalf("%s: daemon output differs from CLI output:\ndaemon:\n%s\nCLI:\n%s",
				cfg.Protocol, resp.Output, want.Output)
		}
		if resp.Pass != want.Pass || resp.Cycles != want.Cycles {
			t.Fatalf("%s: pass/cycles = %v/%d, want %v/%d",
				cfg.Protocol, resp.Pass, resp.Cycles, want.Pass, want.Cycles)
		}
	}
}

// TestSimulateValidation rejects bad configurations with 400 before
// any work happens.
func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []any{
		simrun.Config{Protocol: "no-such-protocol"},
		simrun.Config{Protocol: "bitar", Workload: "trace", TraceFile: "/etc/passwd"},
		simrun.Config{Protocol: "bitar", Procs: 99},
		map[string]any{"protocol": "bitar", "bogus_field": 1},
	}
	for i, c := range cases {
		code, _, body := postJSON(t, ts.URL+"/v1/simulate", c)
		if code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (%s), want 400", i, code, body)
		}
	}
}

// TestCheckEndpoint runs a clean check and an injected-bug check: the
// first passes, the second returns a counterexample.
func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, _, body := postJSON(t, ts.URL+"/v1/check", CheckRequest{Protocol: "bitar", Depth: 4})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Pass {
		t.Fatalf("clean bitar check failed: %s", resp.Result)
	}
	var res struct {
		States         int64 `json:"states"`
		Counterexample any   `json:"counterexample"`
	}
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.States < 2 {
		t.Fatalf("states = %d, want >= 2", res.States)
	}

	code, _, body = postJSON(t, ts.URL+"/v1/check",
		CheckRequest{Protocol: "bitar", Inject: "drop-invalidate", Depth: 5})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Pass {
		t.Fatal("injected bug not caught")
	}
	if !bytes.Contains(resp.Result, []byte("counterexample")) {
		t.Fatalf("no counterexample in result: %s", resp.Result)
	}

	code, _, body = postJSON(t, ts.URL+"/v1/check", CheckRequest{Protocol: "bitar", Depth: 99})
	if code != http.StatusBadRequest {
		t.Fatalf("depth 99: status %d (%s), want 400", code, body)
	}
}

// TestSweepEndpoint fans out protocols × procs and returns one summary
// point per cell.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, _, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Protocols: []string{"bitar", "illinois"}, Procs: []int{1, 2}, Ops: 200,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(resp.Points))
	}
	if !resp.Pass {
		t.Fatalf("sweep reported coherence violations: %+v", resp.Points)
	}
	for _, p := range resp.Points {
		if p.Cycles <= 0 {
			t.Fatalf("point %+v has no cycles", p)
		}
	}
}

// bigSweepBody is a 1,000 procs × 1,000 remotes sweep of one protocol:
// about 8 KB of JSON naming a million points.
func bigSweepBody() []byte {
	var b strings.Builder
	b.WriteString(`{"protocols":["bitar"],"tiers":2,"procs":[`)
	for i := 1; i <= 1000; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString(`],"remotes":[`)
	for i := 1; i <= 1000; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// TestSweepExpandBoundsBeforeAllocating pins that an oversized sweep is
// refused before its points are built: rejecting a million-point body
// must cost Expand less than 64 KiB, not the product's size.
func TestSweepExpandBoundsBeforeAllocating(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(bigSweepBody()))
	var sr SweepRequest
	if err := decodeBody(r, &sr); err != nil {
		t.Fatal(err)
	}
	least := leastAlloc(3, func() {
		cfgs, err := sr.Expand()
		if err == nil || err.Error() != "sweep exceeds 256 points" {
			t.Fatalf("Expand = %d configs, %v; want the 256-point error", len(cfgs), err)
		}
	})
	if least >= 64<<10 {
		t.Fatalf("rejecting the body allocated %d bytes, want under 64 KiB", least)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(bigSweepBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// hugeShardOpenBody is a /v1/shard/open body, under 100 bytes, that
// asks for a session of 2^20 shards.
const hugeShardOpenBody = `{"session":"huge","protocol":"bitar","self":0,"total":1048576}`

// leastAlloc returns the fewest bytes fn allocated over n calls. Other
// goroutines only add to TotalAlloc, so the least reading is fn's own.
func leastAlloc(n int, fn func()) uint64 {
	least := uint64(1 << 62)
	for i := 0; i < n; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestShardOpenBoundsTotal pins that /v1/shard/open cannot size a
// session's memory: a session of 2^20 shards, which allocated about
// 76 MB of per-shard outboxes with two expand workers, is refused
// while allocating under 64 KiB, and the body gets a 400.
func TestShardOpenBoundsTotal(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/shard/open", strings.NewReader(hugeShardOpenBody))
	req, opts, err := shardOpenOptions(r)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	least := leastAlloc(3, func() {
		sess, err := mcheck.NewShardSession(opts, req.Self, req.Total)
		if err == nil {
			sess.Close()
			t.Fatalf("NewShardSession accepted %d shards", req.Total)
		}
	})
	if least >= 64<<10 {
		t.Fatalf("refusing %d shards allocated %d bytes, want under 64 KiB", req.Total, least)
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/shard/open", "application/json", strings.NewReader(hugeShardOpenBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestSweepWorkerCountInvariant pins the parallel sweep executor's
// contract at the HTTP layer: the response body is byte-identical at
// every SweepWorkers setting (cells merge in submission order).
func TestSweepWorkerCountInvariant(t *testing.T) {
	req := SweepRequest{
		Protocols: []string{"bitar", "dragon", "illinois"}, Procs: []int{1, 2}, Ops: 150,
	}
	var want []byte
	for _, sweepWorkers := range []int{1, 2, 8} {
		_, ts := newTestServer(t, Config{Workers: 2, SweepWorkers: sweepWorkers})
		code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("sweep-workers=%d: status %d: %s", sweepWorkers, code, body)
		}
		// The job ID differs per server instance; compare the payload.
		var resp SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Job = ""
		canon, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = canon
		} else if string(canon) != string(want) {
			t.Errorf("sweep-workers=%d: response diverges:\n%s\nwant:\n%s", sweepWorkers, canon, want)
		}
	}
}

// TestQueueFullReturns429WithRetryAfter fills the single execution
// slot with a slow request, sets queue capacity to zero, and asserts
// the next arrival is shed with 429 + Retry-After.
func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 0, RetryAfter: 2 * time.Second})

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/simulate",
			simrun.Config{Protocol: "bitar", Ops: 30_000, Seed: 41})
		done <- code
	}()
	waitBusy(t, s, 1)

	code, hdr, body := postJSON(t, ts.URL+"/v1/simulate",
		simrun.Config{Protocol: "bitar", Ops: 30_000, Seed: 42})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", hdr.Get("Retry-After"))
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("slot-holding request finished with %d, want 200", got)
	}
}

// TestDeadlineReturns504Promptly gives a long simulation a 100ms
// budget and asserts the 504 arrives promptly — i.e. the deadline
// propagated into the simulation step loop and aborted it mid-run
// rather than letting it run to completion.
func TestDeadlineReturns504Promptly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	start := time.Now()
	code, _, body := postJSON(t, ts.URL+"/v1/simulate?timeout=100ms",
		simrun.Config{Protocol: "bitar", Ops: 1_000_000, Seed: 43})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, body)
	}
	// A 1M-op run takes tens of seconds; a prompt abort is orders of
	// magnitude faster. The generous bound absorbs -race and CI noise.
	if elapsed > 10*time.Second {
		t.Fatalf("504 took %v — cancellation did not reach the simulation", elapsed)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("error body %q does not identify the deadline", body)
	}

	// The aborted run must release its slot and unwind its goroutines:
	// the next request executes fresh.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot still busy after 504")
		}
		time.Sleep(time.Millisecond)
	}
	code, _, body = postJSON(t, ts.URL+"/v1/simulate",
		simrun.Config{Protocol: "bitar", Ops: 200, Seed: 43})
	if code != http.StatusOK {
		t.Fatalf("follow-up request: status %d (%s)", code, body)
	}
}

// TestGracefulDrainAnswersInFlight starts a request, flips the server
// into drain mode, and asserts: the in-flight request completes with
// 200, new work is rejected with 503 + Retry-After, /healthz reports
// draining, and Close returns once the request is done.
func TestGracefulDrainAnswersInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		code, _, body := postJSON(t, ts.URL+"/v1/simulate",
			simrun.Config{Protocol: "bitar", Ops: 20_000, Seed: 51})
		done <- result{code, body}
	}()
	waitBusy(t, s, 1)
	s.StartDrain()

	code, hdr, body := postJSON(t, ts.URL+"/v1/simulate",
		simrun.Config{Protocol: "bitar", Ops: 200, Seed: 52})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d (%s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 during drain has no Retry-After")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d (%s), want 200", r.code, r.body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(r.body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Pass {
		t.Fatal("drained request's simulation did not pass")
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after drain")
	}
}

// TestConcurrentIdenticalRequestsCoalesce fires identical requests
// concurrently and asserts exactly one execution happened: everyone
// else was served by the single flight or the result cache, and all
// answers are identical.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 4, Cache: cache})

	cfg := simrun.Config{Protocol: "bitar", Ops: 5_000, Seed: 61}
	const n = 8
	var wg sync.WaitGroup
	resps := make([]SimulateResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, body := postJSON(t, ts.URL+"/v1/simulate", cfg)
			codes[i] = code
			_ = json.Unmarshal(body, &resps[i])
		}(i)
	}
	wg.Wait()

	executed := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if resps[i].Output != resps[0].Output {
			t.Fatalf("request %d: output differs", i)
		}
		if !resps[i].Cached && !resps[i].Coalesced {
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("%d requests executed fresh, want exactly 1 (rest coalesced or cached)", executed)
	}
}

// TestJobStreamNDJSON runs a request asynchronously and streams its
// job events: queued → started → buslog lines → done, each one valid
// JSON on its own line.
func TestJobStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, _, body := postJSON(t, ts.URL+"/v1/simulate?async=1",
		simrun.Config{Protocol: "bitar", Ops: 2_000, Seed: 71, LogN: 5})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d (%s), want 202", code, body)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Job == "" {
		t.Fatal("202 response has no job id")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // stream closes when the job finishes
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var types []string
	for i, ln := range lines {
		var ev JobEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %q", i, ln)
		}
		if ev.Seq != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
		types = append(types, ev.T)
	}
	if types[0] != "queued" || types[len(types)-1] != "done" {
		t.Fatalf("event types = %v, want queued ... done", types)
	}
	buslog := 0
	for _, ty := range types {
		if ty == "buslog" {
			buslog++
		}
	}
	if buslog == 0 || buslog > 5 {
		t.Fatalf("buslog events = %d, want 1..5 (LogN=5)", buslog)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestOverloadShedsCleanly slams a 1-worker, 1-queue server with a
// burst and asserts every response is either a success or a clean 429
// — never a 5xx, never a hang — and that the whole episode leaks no
// goroutines.
func TestOverloadShedsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
		const n = 12
		var wg sync.WaitGroup
		codes := make([]int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i], _, _ = postJSON(t, ts.URL+"/v1/simulate?timeout=30s",
					simrun.Config{Protocol: "bitar", Ops: 5_000, Seed: int64(100 + i)})
			}(i)
		}
		wg.Wait()
		ok, shed := 0, 0
		for i, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Fatalf("request %d: status %d — overload must produce only 200s and 429s", i, c)
			}
		}
		if ok == 0 {
			t.Fatal("no request succeeded under overload")
		}
		t.Logf("overload: %d ok, %d shed", ok, shed)
		ts.Close()
		s.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	// Everything the burst spawned — workload goroutines, slot holders,
	// watchers — must unwind once the server closes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after overload+close", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGateDirect exercises the admission gate's three outcomes
// deterministically: immediate grant, bounded wait, and rejection.
func TestGateDirect(t *testing.T) {
	g := newGate(1, 1)
	rel1, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		rel2, err := g.acquire(context.Background())
		if err == nil {
			rel2()
		}
		got <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := g.acquire(context.Background()); err != errQueueFull {
		t.Fatalf("third acquire: %v, want errQueueFull", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx); err != errQueueFull {
		// With the queue occupied, even a deadline-bearing caller is
		// shed immediately rather than waiting.
		t.Fatalf("acquire with full queue: %v, want errQueueFull", err)
	}

	rel1()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inuse=%d waiting=%d", g.InUse(), g.Waiting())
	}

	// A caller whose deadline passes while it waits in the queue gives
	// up its place and never gets a slot, so its job never runs.
	rel1, err = g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("acquire past its deadline: %v, want context.DeadlineExceeded", err)
	}
	rel1()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained after abandoned wait: inuse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestMetricsEndpoint checks the exposition after some traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, _, _ := postJSON(t, ts.URL+"/v1/simulate", simrun.Config{Protocol: "bitar", Ops: 200, Seed: 81})
	if code != http.StatusOK {
		t.Fatalf("simulate: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`cachesyncd_requests_total{route="POST /v1/simulate"} 1`,
		`cachesyncd_responses_total{code="200"} 1`,
		"cachesyncd_uptime_seconds",
		"cachesyncd_inflight",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}
}

// TestTimeoutParam rejects malformed and non-positive timeouts.
func TestTimeoutParam(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, q := range []string{"timeout=banana", "timeout=-3s", "timeout=0s"} {
		code, _, body := postJSON(t, ts.URL+"/v1/simulate?"+q, simrun.Config{Protocol: "bitar", Ops: 100})
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, code, body)
		}
	}
}

// TestPprofMount covers the /debug/pprof/ diagnostic mount: present
// only when Config.Pprof is set, served outside the instrumented
// route table (no /metrics footprint, no admission), and still
// answering while the daemon drains.
func TestPprofMount(t *testing.T) {
	t.Run("disabled-by-default", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pprof without Config.Pprof: code %d, want 404", resp.StatusCode)
		}
	})

	t.Run("enabled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, Pprof: true})
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: code %d, want 200", path, resp.StatusCode)
			}
		}

		// Not instrumented: the probes above must not appear in /metrics.
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "pprof") {
			t.Fatalf("/metrics mentions pprof routes:\n%s", body)
		}

		// Still served while draining (new work is 503 then).
		s.StartDrain()
		resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof while draining: code %d, want 200", resp.StatusCode)
		}
	})
}
