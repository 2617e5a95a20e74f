package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cachesync/internal/runner"
	"cachesync/internal/serve"
	"cachesync/internal/simrun"
)

// The serving workloads: a closed loop of one client on one keep-alive
// connection against an in-process cachesyncd (serve.Server, two
// workers, runner cache in a temporary directory) on loopback. One
// client keeps the load within the single P the benchmark runs on.

const (
	serveWorkers = 2
	hitPeriod    = 80 // the mixed rotation repeats every lcm(10, 4, 16) requests
)

// mixProtocols is loadgen's protocol rotation.
var mixProtocols = []string{"bitar", "illinois", "goodman", "berkeley"}

// request is one prepared HTTP request body.
type request struct {
	path string
	body []byte
}

// hitRequest is the i-th request of loadgen's mixed rotation: 70%
// simulate p4×200 over 16 seeds, 20% check depth 4, 10% a two-point
// sweep. The simulate and sweep seeds are offset by the run seed, so
// seed 1 sends loadgen's exact stream.
func hitRequest(i int, seed int64) request {
	base := 1 + 16*(seed-1)
	p := mixProtocols[i%len(mixProtocols)]
	var path string
	var body map[string]any
	switch {
	case i%10 < 7:
		path, body = "/v1/simulate", map[string]any{"protocol": p, "ops": 200, "seed": base + int64(i%16)}
	case i%10 < 9:
		path, body = "/v1/check", map[string]any{"protocol": p, "depth": 4}
	default:
		path, body = "/v1/sweep", map[string]any{"protocols": []string{p}, "procs": []int{1, 2},
			"ops": 100, "seed": base + int64(i%16)}
	}
	data, _ := json.Marshal(body)
	return request{path, data}
}

// missConfig is the i-th serve-miss request: the default simulate
// request (checker on), p4×300, rotating protocols, with a seed no
// other request of the run uses.
func missConfig(i, seed int64) simrun.Config {
	return simrun.Config{Protocol: mixProtocols[i%int64(len(mixProtocols))], Procs: 4, Ops: 300,
		Seed: seed*10_000_000 + i}
}

// Request-index ranges that keep the serve-miss seeds unique per run.
const (
	missWarmBase   = 5_000_000
	missLadderBase = 8_000_000
)

// server is one in-process daemon listening on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	url  string
	done chan struct{}
}

// startServer serves a fresh daemon over cache on an ephemeral loopback
// port.
func startServer(cache *runner.Cache, peers *serve.PeerSource) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Config{Workers: serveWorkers, Cache: cache, Peers: peers}),
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.url = "http://" + s.addr
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, waits for the serving goroutine and drains
// the daemon.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole response body; the
// latency runs from send to body read.
func post(c *http.Client, url string, r request) (int, http.Header, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, body, time.Since(t0), err
}

// scrape reads a Prometheus text exposition into name{labels} → value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// withoutJob strips the leading job id, the only field of a work
// response that differs between two identical requests.
func withoutJob(body []byte) []byte {
	if i := bytes.IndexByte(body, ','); i >= 0 {
		return body[i:]
	}
	return body
}

// closedLoop sends requests next, next+1, … one at a time, each as soon
// as the previous reply is read, until d has elapsed. Request i is of
// class i mod classes. do sends request i and reports whether it
// succeeded and how long it took.
func closedLoop(d time.Duration, classes int, next *int64, do func(i int64) (bool, time.Duration)) *loopResult {
	lr := newLoopResult(classes)
	for start := time.Now(); time.Since(start) < d; {
		i := *next
		*next++
		if ok, lat := do(i); ok {
			lr.add(int(i%int64(classes)), lat)
		}
	}
	return lr
}

// --- serve-hit ---

type hitInst struct {
	e      *env
	s      *server
	client *http.Client
	reqs   [hitPeriod]request
	want   map[string][]byte // response body without the job id, by request body
	next   int64
}

func setupServeHit(e *env) (instance, error) {
	s, err := startFreshServer(e, "serve-hit-")
	if err != nil {
		return nil, err
	}
	inst := &hitInst{e: e, s: s, client: newClient()}
	for i := range inst.reqs {
		inst.reqs[i] = hitRequest(i, e.opts.seed)
	}
	if inst.want, err = warmKeys(inst.client, s.url, inst.reqs[:]); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// distinctRequests drops repeated request bodies, keeping first
// occurrences in order.
func distinctRequests(reqs []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if !seen[string(r.body)] {
			seen[string(r.body)] = true
			out = append(out, r)
		}
	}
	return out
}

// warmKeys sends every distinct request twice — the first computes and
// stores it, the second reads it back — and returns the second reply's
// body per request body.
func warmKeys(c *http.Client, url string, reqs []request) (map[string][]byte, error) {
	want := map[string][]byte{}
	for pass := 0; pass < 2; pass++ {
		for _, r := range distinctRequests(reqs) {
			code, hdr, body, _, err := post(c, url, r)
			if err != nil {
				return nil, err
			}
			if code != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s %s: status %d: %s", r.path, r.body, code, body)
			}
			if pass == 0 {
				continue
			}
			if x := hdr.Get("X-Cache"); x != "" && x != "hit" {
				return nil, fmt.Errorf("warm-up %s %s: second reply X-Cache %q", r.path, r.body, x)
			}
			want[string(r.body)] = withoutJob(body)
		}
	}
	return want, nil
}

func (inst *hitInst) run(d time.Duration, tr *tracer) (*loopResult, error) {
	before, err := scrape(inst.client, inst.s.url)
	if err != nil {
		return nil, err
	}
	// A class is a position in the rotation: one key.
	lr := closedLoop(d, hitPeriod, &inst.next, func(i int64) (bool, time.Duration) {
		r := inst.reqs[i%hitPeriod]
		t0 := time.Now()
		code, _, body, lat, err := post(inst.client, inst.s.url, r)
		tr.record(0, 0, tr.id(), "http.request", t0, time.Now(), nil)
		switch {
		case err != nil:
			inst.e.tally.fail("serve-hit %s: %v", r.path, err)
		case code != http.StatusOK:
			inst.e.tally.fail("serve-hit %s: status %d", r.path, code)
		case !bytes.Equal(withoutJob(body), inst.want[string(r.body)]):
			inst.e.tally.fail("serve-hit %s %s: body differs from the warm-up reply", r.path, r.body)
		default:
			inst.e.tally.ok()
			return true, lat
		}
		return false, lat
	})
	after, err := scrape(inst.client, inst.s.url)
	if err != nil {
		return nil, err
	}
	misses := int64(after["cachesyncd_cache_misses_total"] - before["cachesyncd_cache_misses_total"])
	inst.e.tally.expect(misses == 0, "serve-hit: %d requests executed fresh; every timed request must be a cache read", misses)
	inst.e.tally.expect(after["cachesyncd_rejected_total"] == 0, "serve-hit: %v requests rejected", after["cachesyncd_rejected_total"])
	lr.runnerMisses = misses
	return lr, nil
}

func (inst *hitInst) close() {
	inst.client.CloseIdleConnections()
	inst.s.close()
}

// --- serve-miss ---

type missInst struct {
	e      *env
	s      *server
	client *http.Client
	next   int64
}

func setupServeMiss(e *env) (instance, error) {
	s, err := startFreshServer(e, "serve-miss-")
	if err != nil {
		return nil, err
	}
	inst := &missInst{e: e, s: s, client: newClient()}
	// Warm the request path with requests outside the timed seed range.
	for k := int64(0); k < 8; k++ {
		body, _ := json.Marshal(missConfig(missWarmBase+k, e.opts.seed))
		code, _, resp, _, err := post(inst.client, s.url, request{"/v1/simulate", body})
		if err != nil || code != http.StatusOK {
			inst.close()
			return nil, fmt.Errorf("warm-up: status %d: %v %s", code, err, resp)
		}
	}
	return inst, nil
}

func (inst *missInst) run(d time.Duration, tr *tracer) (*loopResult, error) {
	before, err := scrape(inst.client, inst.s.url)
	if err != nil {
		return nil, err
	}
	// Every 32nd reply is kept and recomputed in-process after the loop.
	kept := map[int64][]byte{}
	// A class is a protocol of the rotation (missConfig).
	lr := closedLoop(d, len(mixProtocols), &inst.next, func(i int64) (bool, time.Duration) {
		body, _ := json.Marshal(missConfig(i, inst.e.opts.seed))
		t0 := time.Now()
		code, _, resp, lat, err := post(inst.client, inst.s.url, request{"/v1/simulate", body})
		tr.record(0, 0, tr.id(), "http.request", t0, time.Now(), nil)
		switch {
		case err != nil:
			inst.e.tally.fail("serve-miss: %v", err)
		case code != http.StatusOK:
			inst.e.tally.fail("serve-miss: status %d: %s", code, resp)
		case !bytes.Contains(resp, []byte(`"pass":true`)):
			inst.e.tally.fail("serve-miss %s: checker did not pass", body)
		default:
			inst.e.tally.ok()
			if i%32 == 0 {
				kept[i] = resp
			}
			return true, lat
		}
		return false, lat
	})
	after, err := scrape(inst.client, inst.s.url)
	if err != nil {
		return nil, err
	}
	inst.e.tally.expect(after["cachesyncd_rejected_total"] == 0, "serve-miss: %v requests rejected", after["cachesyncd_rejected_total"])
	for i, resp := range kept {
		if err := recomputeMatches(missConfig(i, inst.e.opts.seed), resp); err != nil {
			inst.e.tally.fail("serve-miss request %d: %v", i, err)
		} else {
			inst.e.tally.ok()
		}
	}
	lr.runnerMisses = int64(after["cachesyncd_cache_misses_total"] - before["cachesyncd_cache_misses_total"])
	return lr, nil
}

// recomputeMatches reruns cfg in-process with simrun.Run and compares
// the report, verdict and cycles with a daemon reply byte for byte.
func recomputeMatches(cfg simrun.Config, reply []byte) error {
	var got serve.SimulateResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	want, err := simrun.Run(context.Background(), cfg.Normalize())
	if err != nil {
		return err
	}
	if got.Output != want.Output || got.Pass != want.Pass || got.Cycles != want.Cycles {
		return errors.New("daemon reply differs from an in-process simrun.Run")
	}
	return nil
}

func (inst *missInst) close() {
	inst.client.CloseIdleConnections()
	inst.s.close()
}

// tempDir makes a directory under the run's temporary root.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// startFreshServer starts a daemon over an empty cache in a new
// temporary directory.
func startFreshServer(e *env, pattern string) (*server, error) {
	dir, err := e.tempDir(pattern)
	if err != nil {
		return nil, err
	}
	cache, err := openCache(dir)
	if err != nil {
		return nil, err
	}
	return startServer(cache, nil)
}
