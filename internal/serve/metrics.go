package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routeStat accumulates one route's request count and latency, which
// /metrics renders as per-route counters and latency sums.
type routeStat struct {
	count  int64
	micros int64
}

// metrics is the daemon's counter set, rendered in Prometheus text
// exposition format at GET /metrics. Everything is atomic or
// mutex-guarded: handlers update concurrently.
type metrics struct {
	start time.Time

	mu       sync.Mutex
	routes   map[string]*routeStat // by route
	statuses map[int]int64         // by HTTP status

	inflight     atomic.Int64
	rejected     atomic.Int64 // 429s from the admission gate
	timeouts     atomic.Int64 // 504s from expired deadlines
	coalesced    atomic.Int64 // requests served by another's execution
	cacheHits    atomic.Int64 // requests served from the result cache
	peerHits     atomic.Int64 // cache entries fetched from fleet peers
	artifactHits atomic.Int64 // GET /v1/artifact answered 200
	artifactMiss atomic.Int64 // GET /v1/artifact answered 404
	shardOpens   atomic.Int64 // distributed-check shard sessions opened
	cacheMisses  atomic.Int64 // requests that executed fresh (X-Cache: miss)
	reqMicros    atomic.Int64 // summed request latency
	reqCount     atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		routes:   make(map[string]*routeStat),
		statuses: make(map[int]int64),
	}
}

func (m *metrics) request(route string) {
	m.mu.Lock()
	if m.routes[route] == nil {
		m.routes[route] = &routeStat{}
	}
	m.routes[route].count++
	m.mu.Unlock()
}

func (m *metrics) status(code int) {
	m.mu.Lock()
	m.statuses[code]++
	m.mu.Unlock()
}

func (m *metrics) observe(route string, d time.Duration) {
	m.reqMicros.Add(d.Microseconds())
	m.reqCount.Add(1)
	m.mu.Lock()
	if m.routes[route] == nil {
		m.routes[route] = &routeStat{}
	}
	m.routes[route].micros += d.Microseconds()
	m.mu.Unlock()
}

// render writes the exposition text.
func (m *metrics) render(g *gate, jobs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE cachesyncd_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "cachesyncd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	m.mu.Lock()
	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	fmt.Fprintf(&b, "# TYPE cachesyncd_requests_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(&b, "cachesyncd_requests_total{route=%q} %d\n", r, m.routes[r].count)
	}
	fmt.Fprintf(&b, "# TYPE cachesyncd_route_seconds_sum counter\n")
	for _, r := range routes {
		fmt.Fprintf(&b, "cachesyncd_route_seconds_sum{route=%q} %.6f\n", r, float64(m.routes[r].micros)/1e6)
	}
	fmt.Fprintf(&b, "# TYPE cachesyncd_route_seconds_count counter\n")
	for _, r := range routes {
		fmt.Fprintf(&b, "cachesyncd_route_seconds_count{route=%q} %d\n", r, m.routes[r].count)
	}
	codes := make([]int, 0, len(m.statuses))
	for c := range m.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(&b, "# TYPE cachesyncd_responses_total counter\n")
	for _, c := range codes {
		fmt.Fprintf(&b, "cachesyncd_responses_total{code=\"%d\"} %d\n", c, m.statuses[c])
	}
	m.mu.Unlock()

	fmt.Fprintf(&b, "# TYPE cachesyncd_inflight gauge\ncachesyncd_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_queue_waiting gauge\ncachesyncd_queue_waiting %d\n", g.Waiting())
	fmt.Fprintf(&b, "# TYPE cachesyncd_slots_busy gauge\ncachesyncd_slots_busy %d\n", g.InUse())
	fmt.Fprintf(&b, "# TYPE cachesyncd_rejected_total counter\ncachesyncd_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_timeout_total counter\ncachesyncd_timeout_total %d\n", m.timeouts.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_coalesced_total counter\ncachesyncd_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_cache_hits_total counter\ncachesyncd_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_cache_misses_total counter\ncachesyncd_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_peer_hits_total counter\ncachesyncd_peer_hits_total %d\n", m.peerHits.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_artifact_hits_total counter\ncachesyncd_artifact_hits_total %d\n", m.artifactHits.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_artifact_misses_total counter\ncachesyncd_artifact_misses_total %d\n", m.artifactMiss.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_shard_sessions_total counter\ncachesyncd_shard_sessions_total %d\n", m.shardOpens.Load())
	fmt.Fprintf(&b, "# TYPE cachesyncd_jobs_stored gauge\ncachesyncd_jobs_stored %d\n", jobs)
	fmt.Fprintf(&b, "# TYPE cachesyncd_request_seconds_sum counter\ncachesyncd_request_seconds_sum %.6f\n",
		float64(m.reqMicros.Load())/1e6)
	fmt.Fprintf(&b, "# TYPE cachesyncd_request_seconds_count counter\ncachesyncd_request_seconds_count %d\n",
		m.reqCount.Load())
	return b.String()
}
