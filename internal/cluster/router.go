package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachesync/internal/serve"
	"cachesync/internal/simrun"
)

// rmetrics is the coordinator's own counter set, exposed at
// GET /metrics as cachesyncc_* so a scrape distinguishes routing
// behavior from replica behavior.
type rmetrics struct {
	mu     sync.Mutex
	routed map[string]int64 // forwarded requests by replica name

	reroutes     atomic.Int64 // attempts moved off the preferred replica
	unrouted     atomic.Int64 // requests that found no healthy replica
	ejections    atomic.Int64
	readmissions atomic.Int64
	respawns     atomic.Int64
	checkShards  atomic.Int64 // shard sessions opened for distributed checks
	// shard sessions re-dispatched to another replica after their
	// original host died mid-check (resumed from a checkpoint).
	checkFailovers atomic.Int64
}

func newRMetrics() *rmetrics {
	return &rmetrics{routed: make(map[string]int64)}
}

func (m *rmetrics) route(name string) {
	m.mu.Lock()
	m.routed[name]++
	m.mu.Unlock()
}

// drainClose consumes and closes a response body so the underlying
// connection returns to the pool.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// maxBodyBytes bounds a routed request body; it matches the replica's
// own request-size ceiling.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's HTTP surface: the three work
// endpoints routed by the key the owning replica caches them under,
// job streams found by broadcast, and fleet-level healthz/metrics.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		key := ""
		var cfg simrun.Config
		if err := json.Unmarshal(body, &cfg); err == nil {
			key = serve.SimulateKey(cfg)
		}
		c.proxy(w, r, key, body)
	})
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		key := ""
		var req shardedCheckRequest
		if err := json.Unmarshal(body, &req); err == nil {
			if req.Shards < 0 {
				writeJSON(w, http.StatusBadRequest, map[string]any{"error": "shards must be non-negative"})
				return
			}
			if req.Shards > 1 {
				c.handleShardedCheck(w, r, req.CheckRequest, req.Shards)
				return
			}
			if req.Shards == 1 {
				// "shards" is a coordinator-only field; strip it before
				// proxying to a replica's strict decoder.
				body, _ = json.Marshal(req.CheckRequest)
			}
			key = req.CheckRequest.Normalize().Hash()
		}
		c.proxy(w, r, key, body)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		// A sweep is one cache entry: it goes whole to the replica that
		// owns its key, as a single simulation does.
		key := ""
		var sr serve.SweepRequest
		if err := json.Unmarshal(body, &sr); err == nil {
			if cfgs, err := sr.Expand(); err == nil {
				key = serve.SweepKey(cfgs)
			}
		}
		c.proxy(w, r, key, body)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "unreadable or oversized body"})
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// candidates returns the replicas to try for key, preferred first,
// filtered to the currently healthy. An empty key (unparseable body —
// the replica will reject it with a 400 anyway) round-robins across
// the healthy fleet.
func (c *Cluster) candidates(key string) []*replica {
	var names []string
	if key != "" {
		names = c.ring.pick(key)
	} else {
		names = c.order
	}
	out := make([]*replica, 0, len(names))
	for _, n := range names {
		if rep := c.replicas[n]; rep.healthy.Load() {
			out = append(out, rep)
		}
	}
	if key == "" && len(out) > 1 {
		i := int(c.rr.Add(1)) % len(out)
		out = append(out[i:], out[:i]...)
	}
	return out
}

// proxy forwards one request along key's preference order: the owning
// replica first, then — on a transport error or a 503 from a draining
// replica — each successor with bounded backoff. Application statuses
// (200/202/400/404/429/500/504) are the replica's answer and pass
// through; only "this replica cannot take requests" evidence reroutes.
func (c *Cluster) proxy(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	cands := c.candidates(key)
	if len(cands) == 0 {
		c.met.unrouted.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no healthy replica"})
		return
	}
	for i, rep := range cands {
		if i > 0 {
			c.met.reroutes.Add(1)
			delay := c.opts.RetryBaseDelay << (i - 1)
			if delay > 160*time.Millisecond {
				delay = 160 * time.Millisecond
			}
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		resp, err := c.forward(r, rep, body)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			c.markDown(rep)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining for shutdown: honest, but not for us.
			drainClose(resp)
			continue
		}
		c.met.route(rep.name)
		relay(w, resp, rep.name)
		return
	}
	c.met.unrouted.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no replica accepted the request"})
}

func (c *Cluster) forward(r *http.Request, rep *replica, body []byte) (*http.Response, error) {
	url := "http://" + rep.address() + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.client.Do(req)
}

// relay copies a replica response to the client, tagging which
// replica answered.
func relay(w http.ResponseWriter, resp *http.Response, name string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Replica", name)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy streams src to w, flushing after every chunk so NDJSON
// event streams arrive line by line, not at connection close.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleJob finds a job by broadcast: job ids are minted by replicas,
// unique across the fleet, so the coordinator asks each healthy
// replica in roster order and streams the first non-404 answer.
func (c *Cluster) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, name := range c.order {
		rep := c.replicas[name]
		if !rep.healthy.Load() {
			continue
		}
		resp, err := c.forward(r, rep, nil)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			drainClose(resp)
			continue
		}
		c.met.route(rep.name)
		relay(w, resp, rep.name)
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("job %q not found on any replica", id)})
}

// handleHealthz reports fleet health: 200 while at least one replica
// is admitted, 503 otherwise — so a load balancer in front of several
// coordinators composes.
func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sts := c.Statuses()
	healthy := 0
	for _, st := range sts {
		if st.Healthy {
			healthy++
		}
	}
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ok": healthy > 0, "healthy": healthy, "total": len(sts), "replicas": sts,
	})
}

func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	c.met.mu.Lock()
	names := make([]string, 0, len(c.met.routed))
	for n := range c.met.routed {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# TYPE cachesyncc_routed_total counter\n")
	for _, n := range names {
		fmt.Fprintf(&b, "cachesyncc_routed_total{replica=%q} %d\n", n, c.met.routed[n])
	}
	c.met.mu.Unlock()
	fmt.Fprintf(&b, "# TYPE cachesyncc_reroutes_total counter\ncachesyncc_reroutes_total %d\n", c.met.reroutes.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_unrouted_total counter\ncachesyncc_unrouted_total %d\n", c.met.unrouted.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_ejections_total counter\ncachesyncc_ejections_total %d\n", c.met.ejections.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_readmissions_total counter\ncachesyncc_readmissions_total %d\n", c.met.readmissions.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_respawns_total counter\ncachesyncc_respawns_total %d\n", c.met.respawns.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_check_shards_total counter\ncachesyncc_check_shards_total %d\n", c.met.checkShards.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_check_failovers_total counter\ncachesyncc_check_failovers_total %d\n", c.met.checkFailovers.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncc_healthy gauge\ncachesyncc_healthy %d\n", c.healthyCount())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String())
}
