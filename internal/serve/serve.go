// Package serve is the cachesyncd daemon core: an HTTP/JSON service
// exposing the repository's engines — the protocol simulator
// (internal/simrun), the bounded model checker (internal/mcheck), and
// protocol×procs sweeps — as long-running endpoints on a shared worker
// pool with bounded admission, per-request deadlines, single-flight
// deduplication of identical in-flight requests, an on-disk result
// cache, NDJSON progress streaming, and graceful drain.
//
// The serving discipline is the paper's bus-arbitration story applied
// to a network service: the worker pool is the shared bus, the
// admission gate is the bounded arbiter queue, and requests beyond its
// capacity are rejected at the edge (429 + Retry-After) instead of
// being allowed to queue without bound and degrade everyone's latency.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachesync"
	"cachesync/internal/flight"
	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the execution width: how many simulations/checks run
	// concurrently (< 1 means GOMAXPROCS). The admission gate's slot
	// count and the worker pool's size are both set from it.
	Workers int
	// SweepWorkers is the in-process parallelism of one sweep request:
	// how many of a sweep's cells run concurrently inside the sweep's
	// single admission slot (simrun.RunCells). < 1 means Workers —
	// sweeps use the daemon's execution width by default. Results
	// merge in submission order, so the response and the streamed
	// progress events are byte-identical at any setting.
	SweepWorkers int
	// Queue bounds how many admitted requests may wait for a slot;
	// arrivals beyond slots+queue are rejected with 429 (< 0 means the
	// default of 64; 0 means reject whenever every slot is busy).
	Queue int
	// DefaultTimeout is the per-request execution deadline when the
	// caller sets none (?timeout=); zero means 60s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps caller-requested deadlines; zero means 5m.
	MaxTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 responses; zero means 1s.
	RetryAfter time.Duration
	// Cache, when non-nil, is the on-disk result cache shared with the
	// worker pool: identical requests are answered from disk across
	// process restarts, and concurrent identical requests collapse onto
	// one execution.
	Cache *runner.Cache
	// MaxJobs bounds the in-memory job-record store for NDJSON
	// streaming; zero means 512.
	MaxJobs int
	// Peers, when non-nil (and Cache is non-nil), is the fleet artifact
	// exchange: on a local result-cache miss the daemon asks its peer
	// replicas for the entry via GET /v1/artifact/{key} before
	// computing, so a warm entry anywhere in the fleet is a hit
	// everywhere.
	Peers *PeerSource
	// Pprof mounts the net/http/pprof diagnostic endpoints under
	// /debug/pprof/. They are an operator tool, off by default: enable
	// only on loopback or an admin-restricted listener. Profiling
	// requests bypass the instrumented route table, so they are not
	// admission-counted, do not appear in /metrics, and keep working
	// while the daemon drains — exactly what debugging an overloaded
	// or draining daemon needs.
	Pprof bool
	// ShardCheckpointRoot, when set, makes hosted shard sessions
	// checkpoint themselves under <root>/<session>/ after every
	// mutating phase, and lets an open with "resume" restore a
	// session another replica lost. Point every replica in a fleet at
	// the same (shared) root to make distributed checks survive
	// replica death.
	ShardCheckpointRoot string
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	return c
}

// execOut is what one deduplicated execution yields: the pool's result
// plus the leading request's job ID, so coalesced followers can point
// their watchers at the stream that actually ran.
type execOut struct {
	jr    runner.JobResult
	jobID string
}

// Server is the daemon. Create with New, mount Handler, and Close when
// done.
type Server struct {
	cfg    Config
	pool   *runner.Pool
	gate   *gate
	jobs   *jobStore
	met    *metrics
	shards *shardStore
	fl     flight.Group[execOut]

	draining atomic.Bool
	inflight sync.WaitGroup
	closeMu  sync.Mutex
	closed   bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		pool:   runner.NewPool(cfg.Workers, cfg.Cache),
		gate:   newGate(cfg.Workers, cfg.Queue),
		jobs:   newJobStore(cfg.MaxJobs),
		met:    newMetrics(),
		shards: newShardStore(),
	}
	if cfg.Cache != nil && cfg.Peers != nil {
		// Count fleet hits here so /metrics reports them; the cache
		// itself validates and stores whatever the peers return.
		cfg.Cache.SetFetcher(func(key string) ([]byte, bool) {
			data, ok := cfg.Peers.Fetch(key)
			if ok {
				s.met.peerHits.Add(1)
			}
			return data, ok
		})
	}
	return s
}

// StartDrain flips the server into draining mode: /healthz reports 503
// so load balancers stop routing here, and new work requests are
// rejected with 503 + Retry-After while in-flight requests run to
// completion.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains: it stops admitting work, waits for every in-flight
// request (including ?async=1 executions), then stops the worker pool.
// Safe to call more than once.
func (s *Server) Close() {
	s.StartDrain()
	s.inflight.Wait()
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if !s.closed {
		s.closed = true
		s.pool.Close()
	}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/shard/open", s.handleShardOpen)
	mux.HandleFunc("POST /v1/shard/expand", s.handleShardExpand)
	mux.HandleFunc("POST /v1/shard/absorb", s.handleShardAbsorb)
	mux.HandleFunc("POST /v1/shard/trace", s.handleShardTrace)
	mux.HandleFunc("POST /v1/shard/close", s.handleShardClose)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/artifact/{key}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	h := s.instrument(mux)
	if !s.cfg.Pprof {
		return h
	}
	// The pprof mount wraps the instrumented handler from outside:
	// see Config.Pprof for why profiling skips instrumentation.
	outer := http.NewServeMux()
	outer.HandleFunc("/debug/pprof/", pprof.Index)
	outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
	outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	outer.Handle("/", h)
	return outer
}

// route maps a request to its metrics label.
func route(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/v1/jobs/") {
		p = "/v1/jobs/{id}"
	}
	if strings.HasPrefix(p, "/v1/artifact/") {
		p = "/v1/artifact/{key}"
	}
	return r.Method + " " + p
}

// statusWriter records the response code for metrics and forwards
// Flush for NDJSON streaming.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with metrics, in-flight tracking, and the
// drain gate.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := route(r)
		s.met.request(rt)
		if s.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			s.met.status(http.StatusServiceUnavailable)
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "draining", "retry_after_ms": s.cfg.RetryAfter.Milliseconds(),
			}, true)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.met.status(sw.code)
		s.met.observe(rt, time.Since(t0))
	})
}

// timeoutFor resolves the request's execution deadline from ?timeout=,
// defaulted and clamped by the server config.
func (s *Server) timeoutFor(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %w", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout %q must be positive", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// writeJSON renders one response. retry attaches the Retry-After hint.
func (s *Server) writeJSON(w http.ResponseWriter, code int, body any, retry bool) {
	w.Header().Set("Content-Type", "application/json")
	if retry {
		secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// writeError maps an execution error onto its status code.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.met.rejected.Add(1)
		s.writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": "admission queue full", "retry_after_ms": s.cfg.RetryAfter.Milliseconds(),
		}, true)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		s.writeJSON(w, http.StatusGatewayTimeout, map[string]any{"error": err.Error()}, false)
	case errors.Is(err, context.Canceled):
		// The client went away; 499 follows the nginx convention. The
		// response is written for the logs — nobody is reading it.
		s.writeJSON(w, 499, map[string]any{"error": "client closed request"}, false)
	case errors.Is(err, runner.ErrPoolClosed):
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "shutting down"}, true)
	default:
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()}, false)
	}
}

// decodeBody parses one JSON request body strictly.
func decodeBody(r *http.Request, into any) error {
	return decodeBodyLimit(r, into, 1<<20)
}

// decodeBodyLimit is decodeBody with a caller-chosen size cap — the
// shard endpoints move frontier-sized candidate lists.
func decodeBodyLimit(r *http.Request, into any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// execute runs one deduplicated, admission-controlled request: the
// single-flight group collapses concurrent identical requests so only
// the leader passes the admission gate and occupies a pool worker;
// followers wait on the leader's result without consuming capacity.
// run receives the execution context and the job record to stream
// progress into.
func (s *Server) execute(ctx context.Context, jb *jobRec, kind, key string,
	run func(ctx context.Context, jb *jobRec) (runner.Artifact, error)) (runner.Artifact, execMeta, error) {

	jb.emit("queued", kind)
	out, coalesced, err := s.fl.DoCtx(ctx, key, func() (execOut, error) {
		release, err := s.gate.acquire(ctx)
		if err != nil {
			jb.finish("error", err.Error())
			return execOut{}, err
		}
		defer release()
		jb.emit("started", "")
		jr, err := s.pool.Submit(ctx, runner.Job{
			Name:       kind,
			ConfigHash: key,
			Run: func() (runner.Artifact, error) {
				return run(ctx, jb)
			},
		})
		if err != nil {
			jb.finish("error", err.Error())
			return execOut{}, err
		}
		if jr.Cached {
			jb.emit("progress", "served from result cache")
		}
		jb.finish("done", fmt.Sprintf("pass=%v cached=%v", jr.Artifact.Pass, jr.Cached))
		return execOut{jr: jr, jobID: jb.ID}, nil
	})
	if err != nil {
		// A follower's record never saw the leader's events; close it out.
		jb.finish("error", err.Error())
		return runner.Artifact{}, execMeta{}, err
	}
	meta := execMeta{jobID: out.jobID, cached: out.jr.Cached, coalesced: coalesced || out.jr.Shared}
	if coalesced {
		s.met.coalesced.Add(1)
		jb.finish("coalesced", "result shared with job "+out.jobID)
	}
	if out.jr.Cached {
		s.met.cacheHits.Add(1)
	} else if !meta.coalesced {
		s.met.cacheMisses.Add(1)
	}
	return out.jr.Artifact, meta, nil
}

// xcache is the X-Cache response-header value for an execution: "hit"
// (served from the result cache — local disk or a fleet peer),
// "coalesced" (shared another in-flight request's execution), or
// "miss" (executed fresh). The cluster router and BENCH_cluster read
// this header to measure fleet hit ratio without parsing bodies.
func (m execMeta) xcache() string {
	switch {
	case m.cached:
		return "hit"
	case m.coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

type execMeta struct {
	jobID     string
	cached    bool
	coalesced bool
}

// respond is the shared synchronous/asynchronous tail of the three
// work endpoints: ?async=1 detaches the execution from the connection
// (202 + job id for streaming), otherwise the handler waits and
// renders.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, kind, key string,
	run func(ctx context.Context, jb *jobRec) (runner.Artifact, error),
	render func(art runner.Artifact, meta execMeta) any) {

	d, err := s.timeoutFor(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	jb := s.jobs.create(kind)
	if r.URL.Query().Get("async") == "1" {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), d)
		s.inflight.Add(1)
		go func() {
			defer s.inflight.Done()
			defer cancel()
			_, _, _ = s.execute(ctx, jb, kind, key, run)
		}()
		s.writeJSON(w, http.StatusAccepted, map[string]any{"job": jb.ID, "status": "accepted"}, false)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	art, meta, err := s.execute(ctx, jb, kind, key, run)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", meta.xcache())
	s.writeJSON(w, http.StatusOK, render(art, meta), false)
}

// --- /v1/simulate ---

// simPayload is the cached artifact body for a simulation: the
// rendered report (byte-identical to cmd/cachesim's output for the
// same configuration) plus the finishing cycle count.
type simPayload struct {
	Output string `json:"output"`
	Cycles int64  `json:"cycles"`
}

// SimulateResponse is the /v1/simulate response body.
type SimulateResponse struct {
	Job       string `json:"job"`
	Pass      bool   `json:"pass"`
	Cycles    int64  `json:"cycles"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Output is byte-identical to cmd/cachesim's stdout for the same
	// configuration (asserted by TestSimulateMatchesCLI).
	Output string `json:"output"`
}

// simulateConfig decodes, normalizes and validates a /v1/simulate
// request body; an error is the caller's fault.
func simulateConfig(r *http.Request) (simrun.Config, error) {
	var cfg simrun.Config
	if err := decodeBody(r, &cfg); err != nil {
		return cfg, err
	}
	cfg = cfg.Normalize()
	if cfg.TraceFile != "" || cfg.Workload == "trace" {
		// Network callers must not name server-side files.
		return cfg, errors.New("trace workloads are CLI-only")
	}
	return cfg, cfg.Validate()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	cfg, err := simulateConfig(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	key := "simulate|" + cfg.Hash()
	run := func(ctx context.Context, jb *jobRec) (runner.Artifact, error) {
		var hooks simrun.Hooks
		if cfg.LogN > 0 {
			hooks.BusTxn = func(line string) { jb.emit("buslog", line) }
		}
		res, err := simrun.RunWithHooks(ctx, cfg, hooks)
		if err != nil {
			return runner.Artifact{}, err
		}
		body, err := json.Marshal(simPayload{Output: res.Output, Cycles: res.Cycles})
		if err != nil {
			return runner.Artifact{}, err
		}
		return runner.Artifact{Output: string(body), Pass: res.Pass}, nil
	}
	s.respond(w, r, "simulate", key, run, func(art runner.Artifact, meta execMeta) any {
		var p simPayload
		_ = json.Unmarshal([]byte(art.Output), &p)
		return SimulateResponse{
			Job: meta.jobID, Pass: art.Pass, Cycles: p.Cycles,
			Cached: meta.cached, Coalesced: meta.coalesced, Output: p.Output,
		}
	})
}

// --- /v1/check ---

// CheckRequest is the /v1/check request body: a bounded model-check
// configuration. The BFS worker count is a server-side concern — the
// exploration is deterministic for any worker count, so it is not part
// of the request or the cache key.
type CheckRequest struct {
	Protocol  string `json:"protocol"`
	Inject    string `json:"inject,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	Blocks    int    `json:"blocks,omitempty"`
	Words     int    `json:"words,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	Symmetry  bool   `json:"symmetry,omitempty"`
	POR       bool   `json:"por,omitempty"`
	MaxStates int    `json:"maxstates,omitempty"`
}

// Normalize fills defaulted fields, mirroring the server's handling
// of a sparse request body (exported for the cluster router, which
// must compute the same routing key the replica will cache under).
func (cr CheckRequest) Normalize() CheckRequest {
	if cr.Procs == 0 {
		cr.Procs = 2
	}
	if cr.Blocks == 0 {
		cr.Blocks = 1
	}
	if cr.Words == 0 {
		cr.Words = 1
	}
	if cr.Depth == 0 {
		cr.Depth = 6
	}
	if cr.MaxStates == 0 {
		cr.MaxStates = 1 << 21
	}
	return cr
}

func (cr CheckRequest) validate() error {
	if _, err := protocol.New(cr.Protocol); err != nil {
		return err
	}
	if cr.Inject != "" {
		if _, err := mcheck.Mutate(protocol.MustNew(cr.Protocol), cr.Inject); err != nil {
			return err
		}
	}
	if cr.Procs < 2 || cr.Procs > 5 {
		return fmt.Errorf("procs %d out of range [2,5]", cr.Procs)
	}
	if cr.Blocks < 1 || cr.Blocks > 2 {
		return fmt.Errorf("blocks %d out of range [1,2]", cr.Blocks)
	}
	if cr.Words < 1 || cr.Words > 4 {
		return fmt.Errorf("words %d out of range [1,4]", cr.Words)
	}
	if cr.Depth < 1 || cr.Depth > 12 {
		return fmt.Errorf("depth %d out of range [1,12]", cr.Depth)
	}
	if cr.MaxStates < 0 || cr.MaxStates > 1<<22 {
		return fmt.Errorf("maxstates %d out of range", cr.MaxStates)
	}
	return nil
}

// Options resolves a normalized request into the model checker's
// options: validation, protocol construction, and mutant injection in
// one place. The replica uses it for /v1/check and /v1/shard/open;
// the cluster coordinator uses it to drive a distributed check with
// exactly the configuration a single replica would run.
func (cr CheckRequest) Options() (mcheck.Options, error) {
	if err := cr.validate(); err != nil {
		return mcheck.Options{}, err
	}
	p := protocol.MustNew(cr.Protocol)
	if cr.Inject != "" {
		var err error
		if p, err = mcheck.Mutate(p, cr.Inject); err != nil {
			return mcheck.Options{}, err
		}
	}
	return mcheck.Options{
		Protocol: p, Procs: cr.Procs, Blocks: cr.Blocks, Words: cr.Words,
		Depth: cr.Depth, Symmetry: cr.Symmetry, POR: cr.POR, MaxStates: cr.MaxStates,
	}, nil
}

// Hash is the request's cache/single-flight/routing key. Hash a
// normalized request so equivalent bodies collide.
func (cr CheckRequest) Hash() string {
	return fmt.Sprintf("check|%s inject=%s p=%d b=%d w=%d d=%d sym=%v por=%v max=%d",
		cr.Protocol, cr.Inject, cr.Procs, cr.Blocks, cr.Words, cr.Depth, cr.Symmetry, cr.POR, cr.MaxStates)
}

// CheckResponse is the /v1/check response body; Result is the
// mcheck.Result JSON, counterexample included when one was found.
type CheckResponse struct {
	Job       string          `json:"job"`
	Pass      bool            `json:"pass"`
	Cached    bool            `json:"cached,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Result    json.RawMessage `json:"result"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var cr CheckRequest
	if err := decodeBody(r, &cr); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	cr = cr.Normalize()
	if err := cr.validate(); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	run := func(ctx context.Context, jb *jobRec) (runner.Artifact, error) {
		opts, err := cr.Options()
		if err != nil {
			return runner.Artifact{}, err
		}
		opts.Workers = s.cfg.Workers
		opts.Context = ctx
		opts.Progress = func(p mcheck.ProgressInfo) {
			jb.emitf("progress", "depth %d: %d states, %d transitions", p.Depth, p.States, p.Transitions)
		}
		res, err := mcheck.Run(opts)
		if err != nil {
			return runner.Artifact{}, err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return runner.Artifact{}, err
		}
		return runner.Artifact{Output: string(body), Pass: res.Counterexample == nil}, nil
	}
	s.respond(w, r, "check", cr.Hash(), run, func(art runner.Artifact, meta execMeta) any {
		return CheckResponse{
			Job: meta.jobID, Pass: art.Pass,
			Cached: meta.cached, Coalesced: meta.coalesced,
			Result: json.RawMessage(art.Output),
		}
	})
}

// --- /v1/sweep ---

// SweepRequest fans one workload out over protocols × processor
// counts. Empty lists mean every registered protocol / {1,2,4,8}.
// Cells, when set, names the exact (protocol, procs) pairs instead of
// the cross product — the form the cluster router uses to hand each
// replica its shard of a sweep, which is rarely a full product.
type SweepRequest struct {
	Protocols []string    `json:"protocols,omitempty"`
	Procs     []int       `json:"procs,omitempty"`
	Cells     []SweepCell `json:"cells,omitempty"`
	Workload  string      `json:"workload,omitempty"`
	Ops       int         `json:"ops,omitempty"`
	Iters     int         `json:"iters,omitempty"`
	Seed      int64       `json:"seed,omitempty"`
	// Tiers selects the machine for every cell (2 = routed two-tier
	// Aquarius); Remotes adds an inner sweep axis of lower-tier
	// latencies (requires Tiers 2; empty means {0}).
	Tiers   int   `json:"tiers,omitempty"`
	Remotes []int `json:"remotes,omitempty"`
}

// SweepCell is one explicit sweep coordinate.
type SweepCell struct {
	Protocol string `json:"protocol"`
	Procs    int    `json:"procs"`
	Remote   int    `json:"remote,omitempty"`
}

// maxSweepPoints caps the cells one sweep request may expand to.
const maxSweepPoints = 256

var errSweepTooLarge = fmt.Errorf("sweep exceeds %d points", maxSweepPoints)

// Expand resolves the request into its normalized, validated cell
// configurations in deterministic order (protocols outer, procs
// inner; or Cells verbatim). The router and the replica both call
// this, so a sharded sweep executes exactly the cells — in exactly
// the per-shard order — that a single-replica sweep would. The point
// cap is checked before anything is built: each list, then the
// product, so an oversized body costs no more than its own decoding.
func (sr SweepRequest) Expand() ([]simrun.Config, error) {
	var cells []SweepCell
	if len(sr.Cells) > 0 {
		if len(sr.Protocols) > 0 || len(sr.Procs) > 0 {
			return nil, fmt.Errorf("cells and protocols/procs are mutually exclusive")
		}
		if len(sr.Cells) > maxSweepPoints {
			return nil, errSweepTooLarge
		}
		cells = sr.Cells
	} else {
		protos := sr.Protocols
		if len(protos) == 0 {
			protos = cachesync.Protocols()
		}
		procs := sr.Procs
		if len(procs) == 0 {
			procs = []int{1, 2, 4, 8}
		}
		remotes := sr.Remotes
		if len(remotes) == 0 {
			remotes = []int{0}
		}
		// No list is empty, so a list over the cap makes the product
		// exceed it too; below that the product cannot overflow.
		if len(protos) > maxSweepPoints || len(procs) > maxSweepPoints || len(remotes) > maxSweepPoints ||
			len(protos)*len(procs)*len(remotes) > maxSweepPoints {
			return nil, errSweepTooLarge
		}
		cells = make([]SweepCell, 0, len(protos)*len(procs)*len(remotes))
		for _, p := range protos {
			for _, n := range procs {
				for _, r := range remotes {
					cells = append(cells, SweepCell{Protocol: p, Procs: n, Remote: r})
				}
			}
		}
	}
	// Validate every point up front so a bad cell fails fast as a 400,
	// not mid-sweep as a 500.
	cfgs := make([]simrun.Config, 0, len(cells))
	for _, c := range cells {
		cfg := simrun.Config{
			Protocol: c.Protocol, Procs: c.Procs,
			Workload: sr.Workload, Ops: sr.Ops, Iters: sr.Iters, Seed: sr.Seed,
			Tiers: sr.Tiers, RemoteCycles: c.Remote,
		}.Normalize()
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// SweepPoint is one sweep cell's summary.
type SweepPoint struct {
	Protocol string `json:"protocol"`
	Procs    int    `json:"procs"`
	Remote   int    `json:"remote,omitempty"`
	Pass     bool   `json:"pass"`
	Cycles   int64  `json:"cycles"`
}

// SweepResponse is the /v1/sweep response body.
type SweepResponse struct {
	Job       string       `json:"job"`
	Pass      bool         `json:"pass"`
	Cached    bool         `json:"cached,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	Points    []SweepPoint `json:"points"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	if err := decodeBody(r, &sr); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	cfgs, err := sr.Expand()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	var keyb strings.Builder
	keyb.WriteString("sweep")
	for _, cfg := range cfgs {
		keyb.WriteString("|")
		keyb.WriteString(cfg.Hash())
	}
	run := func(ctx context.Context, jb *jobRec) (runner.Artifact, error) {
		// The whole sweep occupies one admission slot (fairness across
		// requests), but its cells fan out over the in-process worker
		// pool. RunCells delivers in submission order on this
		// goroutine, so the points slice and the streamed progress
		// events are byte-identical to a sequential loop at any
		// SweepWorkers setting.
		points := make([]SweepPoint, 0, len(cfgs))
		pass := true
		err := simrun.RunCells(ctx, cfgs, s.cfg.SweepWorkers, func(i int, res simrun.Result) {
			cfg := cfgs[i]
			points = append(points, SweepPoint{Protocol: cfg.Protocol, Procs: cfg.Procs,
				Remote: cfg.RemoteCycles, Pass: res.Pass, Cycles: res.Cycles})
			pass = pass && res.Pass
			jb.emitf("progress", "%d/%d %s p=%d: cycles=%d pass=%v",
				i+1, len(cfgs), cfg.Protocol, cfg.Procs, res.Cycles, res.Pass)
		})
		if err != nil {
			return runner.Artifact{}, err
		}
		body, err := json.Marshal(points)
		if err != nil {
			return runner.Artifact{}, err
		}
		return runner.Artifact{Output: string(body), Pass: pass}, nil
	}
	s.respond(w, r, "sweep", keyb.String(), run, func(art runner.Artifact, meta execMeta) any {
		var points []SweepPoint
		_ = json.Unmarshal([]byte(art.Output), &points)
		return SweepResponse{
			Job: meta.jobID, Pass: art.Pass,
			Cached: meta.cached, Coalesced: meta.coalesced, Points: points,
		}
	})
}

// --- /v1/jobs/{id} ---

// handleJob streams a job's events as NDJSON: everything recorded so
// far replays immediately, then the stream follows live until the job
// finishes or the client disconnects.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"}, false)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	from := 0
	for {
		evs, done, changed := jb.snapshot(from)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		from += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// --- /v1/artifact/{key} ---

// handleArtifact serves one raw result-cache entry by content-addressed
// key — the fleet artifact exchange's read side. It is a pure disk
// lookup: no admission slot, no computation, no recursion into the
// peer fetcher (a replica that does not hold the entry answers 404,
// never "let me go ask around"). Entries are only served when they
// verify against the requested key and this process's source hash, so
// a mixed-version fleet degrades to misses instead of serving results
// the local code would not produce.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]any{"error": "no result cache"}, false)
		return
	}
	key := r.PathValue("key")
	if len(key) != 64 {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": "malformed artifact key"}, false)
		return
	}
	data, ok := s.cfg.Cache.GetRaw(key)
	if !ok {
		s.met.artifactMiss.Add(1)
		s.writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown artifact"}, false)
		return
	}
	s.met.artifactHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// --- /healthz, /metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true}, true)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "workers": s.cfg.Workers, "queue": s.cfg.Queue,
		"uptime_ms": time.Since(s.met.start).Milliseconds(),
	}, false)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(s.met.render(s.gate, s.jobs.count())))
}
