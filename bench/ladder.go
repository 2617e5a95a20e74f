package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cachesync/internal/cluster"
	"cachesync/internal/coherence"
	"cachesync/internal/portfile"
	"cachesync/internal/runner"
	"cachesync/internal/serve"
	"cachesync/internal/sim"
	"cachesync/internal/simrun"
	"cachesync/internal/workload"
)

// The serving ladders replay one request stream at successive rungs,
// each adding one layer on top of the last:
//
//  1. simrun.BuildMachine + RunProgramsContext, no checker
//  2. the same, with an OnTxn hook timing every coherence.Check
//  3. simrun.Run
//  4. runner.Cache.Do
//  5. serve.Server.Handler() in-process, through httptest.NewRecorder
//  6. HTTP on loopback
//  7. cluster.Handler() over three attached replicas, on loopback
//
// A layer's cost is the median per-request difference between adjacent
// rungs. Requests run rung after rung, so both sides of a difference
// see the same host conditions.

const fleetSize = 3

// openCache opens a runner cache in dir/cache.
func openCache(dir string) (*runner.Cache, error) {
	return runner.OpenCache(filepath.Join(dir, "cache"))
}

// fleet is fleetSize in-process replicas behind a cluster coordinator,
// all on loopback. Each replica has its own cache and finds its peers
// through a shared portfile directory.
type fleet struct {
	replicas []*server
	c        *cluster.Cluster
	hs       *http.Server
	url      string
	done     chan struct{}
}

func startFleet(dir string) (*fleet, error) {
	peerDir := filepath.Join(dir, "peers")
	if err := os.MkdirAll(peerDir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	var addrs []string
	for i := 0; i < fleetSize; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("r%d", i))
		cache, err := openCache(rdir)
		if err != nil {
			f.close()
			return nil, err
		}
		peers := serve.NewPeerSource(peerDir)
		s, err := startServer(cache, peers)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, s)
		peers.SetSelf(s.addr)
		if err := portfile.Write(filepath.Join(peerDir, fmt.Sprintf("r%d.port", i)), s.addr); err != nil {
			f.close()
			return nil, err
		}
		addrs = append(addrs, s.addr)
	}
	c, err := cluster.New(cluster.Options{Attach: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.c = c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: c.Handler()}
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

func (f *fleet) close() {
	if f.hs != nil {
		_ = f.hs.Close()
		<-f.done
	}
	if f.c != nil {
		f.c.Close()
	}
	for _, s := range f.replicas {
		s.close()
	}
}

// rejected sums the admission rejections of every daemon given.
func rejected(c *http.Client, servers ...*server) (float64, error) {
	var n float64
	for _, s := range servers {
		met, err := scrape(c, s.url)
		if err != nil {
			return 0, err
		}
		n += met["cachesyncd_rejected_total"]
	}
	return n, nil
}

// routeMillis is the mean server-side milliseconds per request between
// two /metrics scrapes, over the work routes.
func routeMillis(before, after map[string]float64) float64 {
	var sum, count float64
	for _, rt := range []string{"POST /v1/simulate", "POST /v1/check", "POST /v1/sweep"} {
		sum += after[`cachesyncd_route_seconds_sum{route="`+rt+`"}`] - before[`cachesyncd_route_seconds_sum{route="`+rt+`"}`]
		count += after[`cachesyncd_route_seconds_count{route="`+rt+`"}`] - before[`cachesyncd_route_seconds_count{route="`+rt+`"}`]
	}
	if count == 0 {
		return 0
	}
	return 1000 * sum / count
}

// printRungs writes each rung's median request time to standard error.
func printRungs(label string, rung [8][]time.Duration) {
	fmt.Fprintf(os.Stderr, "bench: %s ladder, median µs per request:", label)
	for r, ts := range rung {
		if len(ts) > 0 {
			fmt.Fprintf(os.Stderr, " %d=%.1f", r, median(microsAll(ts)))
		}
	}
	fmt.Fprintln(os.Stderr)
}

// medianDelta is the median over requests of rung b's time minus rung
// a's, in microseconds.
func medianDelta(a, b []time.Duration) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = float64(b[i]-a[i]) / float64(time.Microsecond)
	}
	return median(d)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupLadder times the set-up steps a daemon start pays: opening the
// runner cache (which hashes the source tree) and starting a daemon up
// to its first healthy /healthz reply.
func setupLadder(e *env, m metrics, _ *tracer) error {
	reps := 5
	if e.opts.quick {
		reps = 1
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var opens, starts []float64
	for k := 0; k < reps; k++ {
		dir, err := e.tempDir("ladder-setup-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		cache, err := openCache(dir)
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/float64(time.Millisecond))
		t0 = time.Now()
		s, err := startServer(cache, nil)
		if err != nil {
			return err
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		starts = append(starts, float64(time.Since(t0))/float64(time.Millisecond))
		s.close()
		e.tally.expect(err == nil && resp.StatusCode == http.StatusOK, "daemon start: /healthz failed: %v", err)
	}
	m.set("runner.open_ms", median(opens), "ms")
	m.set("serve.start_ms", median(starts), "ms")
	return nil
}

// simPayload mirrors the daemon's cached simulate artifact body.
type simPayload struct {
	Output string `json:"output"`
	Cycles int64  `json:"cycles"`
}

// serveMissLadder replays serve-miss requests at all seven rungs.
func serveMissLadder(e *env, m metrics, tr *tracer) error {
	n := 96
	if e.opts.quick {
		n = 4
	}
	dir, err := e.tempDir("ladder-miss-")
	if err != nil {
		return err
	}
	cache4, err := openCache(filepath.Join(dir, "rung4"))
	if err != nil {
		return err
	}
	cache5, err := openCache(filepath.Join(dir, "rung5"))
	if err != nil {
		return err
	}
	srv5 := serve.New(serve.Config{Workers: serveWorkers, Cache: cache5})
	defer srv5.Close()
	h5 := srv5.Handler()
	cache6, err := openCache(filepath.Join(dir, "rung6"))
	if err != nil {
		return err
	}
	s6, err := startServer(cache6, nil)
	if err != nil {
		return err
	}
	defer s6.close()
	f7, err := startFleet(filepath.Join(dir, "rung7"))
	if err != nil {
		return err
	}
	defer f7.close()
	client := newClient()
	defer client.CloseIdleConnections()
	before6, err := scrape(client, s6.url)
	if err != nil {
		return err
	}

	ctx := context.Background()
	// rung[0] is simrun.Run with the checker off: simrun's own cost is
	// far smaller than the checker's run-to-run noise, so it is read
	// against rung 1 with the checker off on both sides.
	var rung [8][]time.Duration
	var checkTime time.Duration
	var checks int64
	for k := 0; k < n; k++ {
		raw := missConfig(missLadderBase+int64(k), e.opts.seed)
		cfg := raw.Normalize()
		body, _ := json.Marshal(raw)
		mixed := workload.Mixed{Ops: cfg.Ops, SharedBlocks: 8, PrivBlocks: 24, SharedFrac: 0.3, WriteFrac: 0.35, Seed: cfg.Seed}
		// The untimed reference every rung's answer is checked against.
		ref, err := simrun.Run(ctx, cfg)
		if err != nil {
			return err
		}
		e.tally.expect(ref.Pass, "miss ladder %s: checker did not pass", body)
		// engine builds and runs the machine, timed; hook may attach
		// the checker first.
		engine := func(hook func(*sim.System)) (int64, time.Duration, error) {
			t0 := time.Now()
			sys, _, err := simrun.BuildMachine(cfg)
			if err != nil {
				return 0, 0, err
			}
			if hook != nil {
				hook(sys)
			}
			err = sys.RunProgramsContext(ctx, mixed.Programs(workload.Layout{G: sys.Geometry()}, cfg.Procs))
			return sys.Clock(), time.Since(t0), err
		}
		// Each rung times its own call and checks the answer after.
		rungs := [8]rungFunc{
			0: func() (string, time.Duration, error) {
				nc := cfg
				nc.NoCheck = true
				t0 := time.Now()
				r, err := simrun.Run(ctx, nc)
				return "simrun.nocheck", time.Since(t0), sameCycles(r.Cycles, ref, err)
			},
			1: func() (string, time.Duration, error) {
				clock, d, err := engine(nil)
				return "sim.run", d, sameCycles(clock, ref, err)
			},
			2: func() (string, time.Duration, error) {
				// Checks are summed rather than recorded as spans:
				// hundreds of span records per request would cost more
				// than simrun itself.
				violations := 0
				var sys *sim.System
				check := func() {
					c0 := time.Now()
					violations += len(coherence.Check(sys))
					checkTime += time.Since(c0)
					checks++
				}
				t0 := time.Now()
				clock, _, err := engine(func(s *sim.System) { sys, s.OnTxn = s, check })
				if err == nil {
					check() // simrun checks the final state too
				}
				d := time.Since(t0)
				if violations > 0 {
					err = fmt.Errorf("%d violations", violations)
				}
				return "sim.run", d, sameCycles(clock, ref, err)
			},
			3: func() (string, time.Duration, error) {
				t0 := time.Now()
				r, err := simrun.Run(ctx, cfg)
				d := time.Since(t0)
				if err == nil && r != ref {
					err = errors.New("report differs from the reference run")
				}
				return "simrun.run", d, err
			},
			4: func() (string, time.Duration, error) {
				t0 := time.Now()
				art, cached, _, err := cache4.Do(runner.Job{Name: "simulate", ConfigHash: "simulate|" + cfg.Hash()},
					func() (runner.Artifact, error) {
						r, err := simrun.Run(ctx, cfg)
						if err != nil {
							return runner.Artifact{}, err
						}
						out, err := json.Marshal(simPayload{Output: r.Output, Cycles: r.Cycles})
						return runner.Artifact{Name: "simulate", Output: string(out), Pass: r.Pass}, err
					})
				d := time.Since(t0)
				if err == nil && (cached || !art.Pass) {
					err = fmt.Errorf("cached=%v pass=%v", cached, art.Pass)
				}
				return "runner.do", d, err
			},
			5: func() (string, time.Duration, error) {
				rec := httptest.NewRecorder()
				hreq := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
				t0 := time.Now()
				h5.ServeHTTP(rec, hreq)
				d := time.Since(t0)
				return "serve.handler", d, missReply(rec.Code, rec.Header(), rec.Body.Bytes(), ref, nil)
			},
			6: func() (string, time.Duration, error) {
				code, hdr, resp, d, err := post(client, s6.url, request{"/v1/simulate", body})
				return "http.request", d, missReply(code, hdr, resp, ref, err)
			},
			7: func() (string, time.Duration, error) {
				code, hdr, resp, d, err := post(client, f7.url, request{"/v1/simulate", body})
				return "cluster.request", d, missReply(code, hdr, resp, ref, err)
			},
		}
		climb(e, tr, "miss", k, body, &rungs, &rung)
	}
	after6, err := scrape(client, s6.url)
	if err != nil {
		return err
	}
	printRungs("miss", rung)
	m.set("coherence.us_per_check", micros(checkTime)/float64(checks), "us")
	m.set("coherence.checks_per_req", float64(checks)/float64(n), "count")
	m.set("coherence.share", float64(checkTime)/float64(sum(rung[3])), "ratio")
	m.set("sim.share", float64(sum(rung[1]))/float64(sum(rung[3])), "ratio")
	m.set("simrun.overhead_us", medianDelta(rung[1], rung[0]), "us")
	m.set("runner.put_us", medianDelta(rung[3], rung[4]), "us")
	m.set("serve.handler_us.miss", medianDelta(rung[4], rung[5]), "us")
	m.set("http.loopback_us.miss", medianDelta(rung[5], rung[6]), "us")
	m.set("cluster.route_us.miss", medianDelta(rung[6], rung[7]), "us")
	m.set("serve.server_ms.miss", routeMillis(before6, after6), "ms")
	return nil
}

// rungFunc is one rung of one request: it times its own call and checks
// the answer after the timer stops.
type rungFunc func() (name string, d time.Duration, err error)

// climb runs request k's rungs in ladderOrder and records their times.
func climb(e *env, tr *tracer, label string, k int, what []byte, rungs *[8]rungFunc, times *[8][]time.Duration) {
	req := tr.id()
	for _, r := range ladderOrder(k, len(rungs)) {
		if rungs[r] == nil {
			continue
		}
		name, d, err := rungs[r]()
		end := time.Now()
		times[r] = append(times[r], d)
		tr.record(0, 0, req, name, end.Add(-d), end, map[string]int64{"rung": int64(r)})
		e.tally.expect(err == nil, "%s ladder rung %d %s: %v", label, r, what, err)
	}
}

// ladderOrder lists the rungs of request k: upward for even k, downward
// for odd k, so that no difference between rungs is biased by which of
// the two ran first.
func ladderOrder(k, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
		if k%2 == 1 {
			order[i] = n - 1 - i
		}
	}
	return order
}

// sameCycles checks an engine run's finishing cycle against the
// reference run's.
func sameCycles(clock int64, ref simrun.Result, err error) error {
	if err == nil && clock != ref.Cycles {
		err = fmt.Errorf("finished at cycle %d, reference %d", clock, ref.Cycles)
	}
	return err
}

// missReply checks a daemon's reply to a serve-miss request: 200,
// computed fresh, carrying exactly the reference run.
func missReply(code int, hdr http.Header, body []byte, ref simrun.Result, err error) error {
	switch {
	case err != nil:
		return err
	case code != http.StatusOK:
		return fmt.Errorf("status %d", code)
	case hdr.Get("X-Cache") != "miss":
		return fmt.Errorf("X-Cache %q", hdr.Get("X-Cache"))
	case !sameSim(body, ref):
		return errors.New("reply differs from the reference run")
	}
	return nil
}

// sameSim reports whether a simulate reply carries exactly res.
func sameSim(reply []byte, res simrun.Result) bool {
	var got serve.SimulateResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return false
	}
	return got.Output == res.Output && got.Pass == res.Pass && got.Cycles == res.Cycles
}

// jobFor derives the runner job a daemon stores a request under.
func jobFor(r request) (runner.Job, error) {
	switch r.path {
	case "/v1/simulate":
		var cfg simrun.Config
		if err := json.Unmarshal(r.body, &cfg); err != nil {
			return runner.Job{}, err
		}
		return runner.Job{Name: "simulate", ConfigHash: "simulate|" + cfg.Normalize().Hash()}, nil
	case "/v1/check":
		var cr serve.CheckRequest
		if err := json.Unmarshal(r.body, &cr); err != nil {
			return runner.Job{}, err
		}
		return runner.Job{Name: "check", ConfigHash: cr.Normalize().Hash()}, nil
	default:
		var sr serve.SweepRequest
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return runner.Job{}, err
		}
		cfgs, err := sr.Expand()
		if err != nil {
			return runner.Job{}, err
		}
		key := "sweep"
		for _, c := range cfgs {
			key += "|" + c.Hash()
		}
		return runner.Job{Name: "sweep", ConfigHash: key}, nil
	}
}

// serveHitLadder replays the serve-hit keys, all warm, at rungs 4-7.
func serveHitLadder(e *env, m metrics, tr *tracer) error {
	passes := 8
	if e.opts.quick {
		passes = 1
	}
	dir, err := e.tempDir("ladder-hit-")
	if err != nil {
		return err
	}
	cache6, err := openCache(filepath.Join(dir, "rung6"))
	if err != nil {
		return err
	}
	s6, err := startServer(cache6, nil)
	if err != nil {
		return err
	}
	defer s6.close()
	f7, err := startFleet(filepath.Join(dir, "rung7"))
	if err != nil {
		return err
	}
	defer f7.close()
	client := newClient()
	defer client.CloseIdleConnections()

	all := make([]request, hitPeriod)
	for i := range all {
		all[i] = hitRequest(i, e.opts.seed)
	}
	reqs := distinctRequests(all)
	want6, err := warmKeys(client, s6.url, reqs)
	if err != nil {
		return err
	}
	want7, err := warmKeys(client, f7.url, reqs)
	if err != nil {
		return err
	}
	// Rung 4 reads the rung-6 daemon's entries through a second handle
	// on the same cache directory.
	cache4, err := openCache(filepath.Join(dir, "rung6"))
	if err != nil {
		return err
	}
	jobs := make([]runner.Job, len(reqs))
	for i, r := range reqs {
		if jobs[i], err = jobFor(r); err != nil {
			return err
		}
	}
	h5 := s6.srv.Handler()
	serve5 := func(r request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h5.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		return rec
	}
	before6, err := scrape(client, s6.url)
	if err != nil {
		return err
	}

	var rung [8][]time.Duration
	var hits, tagged int
	missed := func() (runner.Artifact, error) {
		return runner.Artifact{}, errors.New("runner cache missed a warm key")
	}
	// hitReply checks a reply against the warm-up reply for its key.
	hitReply := func(code int, body []byte, want []byte, err error) error {
		switch {
		case err != nil:
			return err
		case code != http.StatusOK:
			return fmt.Errorf("status %d", code)
		case !bytes.Equal(withoutJob(body), want):
			return errors.New("body differs from the warm-up reply")
		}
		return nil
	}
	for k := 0; k < passes*len(reqs); k++ {
		i := k % len(reqs)
		r := reqs[i]
		rungs := [8]rungFunc{
			4: func() (string, time.Duration, error) {
				t0 := time.Now()
				_, cached, _, err := cache4.Do(jobs[i], missed)
				d := time.Since(t0)
				if err == nil && !cached {
					err = errors.New("not served from the cache")
				}
				return "runner.do", d, err
			},
			5: func() (string, time.Duration, error) {
				t0 := time.Now()
				rec := serve5(r)
				d := time.Since(t0)
				return "serve.handler", d, hitReply(rec.Code, rec.Body.Bytes(), want6[string(r.body)], nil)
			},
			6: func() (string, time.Duration, error) {
				code, _, body, d, err := post(client, s6.url, r)
				return "http.request", d, hitReply(code, body, want6[string(r.body)], err)
			},
			7: func() (string, time.Duration, error) {
				code, hdr, body, d, err := post(client, f7.url, r)
				if x := hdr.Get("X-Cache"); x != "" {
					tagged++
					if x == "hit" {
						hits++
					}
				}
				return "cluster.request", d, hitReply(code, body, want7[string(r.body)], err)
			},
		}
		climb(e, tr, "hit", k, r.body, &rungs, &rung)
	}
	after6, err := scrape(client, s6.url)
	if err != nil {
		return err
	}
	printRungs("hit", rung)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, r := range reqs {
		serve5(r)
	}
	runtime.ReadMemStats(&ms)
	m.set("serve.allocs_per_req", float64(ms.Mallocs-before)/float64(len(reqs)), "count")

	rej, err := rejected(client, append([]*server{s6}, f7.replicas...)...)
	if err != nil {
		return err
	}
	e.tally.expect(rej == 0, "hit ladder: %v requests rejected", rej)
	m.set("serve.rejected", rej, "count")
	m.set("runner.hit_us", median(microsAll(rung[4])), "us")
	m.set("serve.handler_us.hit", medianDelta(rung[4], rung[5]), "us")
	m.set("http.loopback_us.hit", medianDelta(rung[5], rung[6]), "us")
	m.set("cluster.route_us.hit", medianDelta(rung[6], rung[7]), "us")
	m.set("cluster.hit_ratio", float64(hits)/float64(tagged), "ratio")
	m.set("serve.server_ms.hit", routeMillis(before6, after6), "ms")
	return nil
}

func microsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
