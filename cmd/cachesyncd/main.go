// Command cachesyncd serves the repository's engines over HTTP/JSON:
// simulations (POST /v1/simulate), bounded model checks (POST
// /v1/check), protocol×procs sweeps (POST /v1/sweep), NDJSON progress
// streams (GET /v1/jobs/{id}), liveness (GET /healthz), Prometheus
// metrics (GET /metrics), and — with -pprof, for operators — the
// net/http/pprof diagnostics (GET /debug/pprof/), which bypass
// admission and metrics and keep working during drain.
//
//	go run ./cmd/cachesyncd -addr 127.0.0.1:8344 -workers 4 -queue 64
//	curl -d '{"protocol":"bitar","ops":500}' localhost:8344/v1/simulate
//	curl -d '{"protocol":"bitar","inject":"drop-invalidate"}' localhost:8344/v1/check
//
// At most -workers requests execute at once, each on the goroutine
// holding its admission slot, with -queue more waiting: overload is
// shed at the edge with 429 + Retry-After rather than queued without
// bound. Identical concurrent requests collapse onto one execution
// (single flight), and -cachedir adds an on-disk result cache every
// execution goes through, so repeated configurations are answered from
// disk across restarts. SIGINT/SIGTERM drains gracefully:
// in-flight requests finish, new ones are rejected with 503.
//
// -peerdir joins a fleet artifact exchange: daemons sharing the
// directory discover each other through their portfiles and serve each
// other's cached results (GET /v1/artifact/{key}) on a local cache
// miss, so a result computed anywhere in the fleet is a hit everywhere.
// cmd/cachesyncc spawns and routes such a fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachesync/internal/portfile"
	_ "cachesync/internal/protocol/all"
	"cachesync/internal/runner"
	"cachesync/internal/serve"
)

var (
	addr      = flag.String("addr", "127.0.0.1:8344", "listen address (use :0 for an ephemeral port)")
	portPath  = flag.String("portfile", "", "write the bound host:port to this file once listening (for scripts using -addr :0)")
	workers   = flag.Int("workers", 0, "concurrent executions (0 = GOMAXPROCS)")
	sweepW    = flag.Int("sweep-workers", 0, "concurrent cells within one sweep request (0 = workers); output is identical at any setting")
	queue     = flag.Int("queue", 64, "admitted requests that may wait for a slot; beyond this arrivals get 429")
	timeout   = flag.Duration("timeout", 60*time.Second, "default per-request execution deadline (callers may lower it with ?timeout=)")
	maxTime   = flag.Duration("maxtimeout", 5*time.Minute, "upper clamp on caller-requested deadlines")
	cacheDir  = flag.String("cachedir", "", "on-disk result cache directory (empty = no cache)")
	peerDir   = flag.String("peerdir", "", "shared portfile directory for the fleet artifact exchange: on a local cache miss, ask the replicas registered here before computing (needs -cachedir)")
	grace     = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight requests")
	pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator diagnostics; enable only on loopback or an admin-restricted listener)")
	shardCkpt = flag.String("shard-checkpoints", "", "directory where hosted shard sessions checkpoint after every level; point the whole fleet at one shared directory and distributed checks survive replica death")
)

func run() error {
	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = runner.OpenCache(*cacheDir); err != nil {
			return err
		}
	}
	var peers *serve.PeerSource
	if *peerDir != "" {
		if cache == nil {
			return fmt.Errorf("-peerdir needs -cachedir: the artifact exchange trades result-cache entries")
		}
		peers = serve.NewPeerSource(*peerDir)
	}
	s := serve.New(serve.Config{
		Workers: *workers, SweepWorkers: *sweepW, Queue: *queue,
		DefaultTimeout: *timeout, MaxTimeout: *maxTime,
		Cache: cache, Peers: peers, Pprof: *pprofOn,
		ShardCheckpointRoot: *shardCkpt,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if peers != nil {
		peers.SetSelf(ln.Addr().String())
	}
	if *portPath != "" {
		if err := portfile.Write(*portPath, ln.Addr().String()); err != nil {
			return err
		}
		defer os.Remove(*portPath)
	}
	fmt.Printf("cachesyncd listening on %s (workers=%d queue=%d cache=%v)\n",
		ln.Addr(), *workers, *queue, cache != nil)

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: advertise draining (healthz 503, new work 503),
	// let in-flight requests finish.
	fmt.Println("cachesyncd: draining")
	s.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	s.Close()
	fmt.Println("cachesyncd: stopped")
	return nil
}

func main() {
	flag.Parse()
	if err := run(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
