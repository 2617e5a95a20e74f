// Command cachesyncc is the cachesync fleet coordinator: it spawns (or
// attaches to) N cachesyncd replicas and serves one routed endpoint in
// front of them.
//
//	go run ./cmd/cachesyncc -replicas 3 -dir /tmp/fleet -addr 127.0.0.1:8345
//	go run ./cmd/cachesyncc -attach 10.0.0.1:8344,10.0.0.2:8344
//
// Requests are routed by consistent-hashing the key the replica
// caches them under, so each replica's single-flight dedup and on-disk
// result cache see every repeat of "their" configurations instead of
// a 1/N shard of them. Replicas share a portfile directory and trade
// cache entries over GET /v1/artifact/{key} (cachesyncd -peerdir), so
// the fleet behaves as one logical cache. Failed replicas are ejected
// on health evidence, routed around with bounded backoff, respawned
// when -respawn is set, and re-admitted — to exactly their old hash
// range — once probes recover. A POST /v1/sweep is one cache entry and
// goes whole to the replica owning its key, like a simulation;
// ?async=1 plus GET /v1/jobs/{id} streams its per-cell progress from
// that replica (job ids are unique across the fleet). POST /v1/check
// with "shards": N > 1 partitions one model-checking run's state space
// across the fleet (each replica owns the states that hash to it) and
// merges a result byte-identical to a single replica's,
// counterexamples included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cachesync/internal/cluster"
	"cachesync/internal/portfile"
)

var (
	addr     = flag.String("addr", "127.0.0.1:8345", "coordinator listen address (use :0 for an ephemeral port)")
	portPath = flag.String("portfile", "", "write the coordinator's bound host:port to this file once listening")
	replicas = flag.Int("replicas", 3, "cachesyncd replicas to spawn (0 = attach-only)")
	binary   = flag.String("binary", "", "cachesyncd executable to spawn (default: cachesyncd beside this binary, else $PATH)")
	dir      = flag.String("dir", "", "fleet state directory: portfiles, pidfiles, per-replica caches and logs (default: a temp dir)")
	attach   = flag.String("attach", "", "comma-separated host:port of externally managed replicas to route to")
	workers  = flag.Int("workers", 0, "per-replica execution width (0 = GOMAXPROCS)")
	queue    = flag.Int("queue", 64, "per-replica admission queue length")
	respawn  = flag.Bool("respawn", true, "restart spawned replicas that exit")
	health   = flag.Duration("health", 250*time.Millisecond, "health probe interval")
	failN    = flag.Int("failafter", 2, "consecutive failed probes before a replica is ejected")
)

// findBinary locates cachesyncd for spawning: -binary, then a sibling
// of the coordinator executable, then $PATH.
func findBinary() (string, error) {
	if *binary != "" {
		return *binary, nil
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "cachesyncd")
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib, nil
		}
	}
	if p, err := exec.LookPath("cachesyncd"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cachesyncd not found: pass -binary")
}

func run() error {
	opts := cluster.Options{
		Spawn:          *replicas,
		Dir:            *dir,
		ReplicaWorkers: *workers,
		ReplicaQueue:   *queue,
		HealthInterval: *health,
		FailAfter:      *failN,
		Respawn:        *respawn,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *attach != "" {
		for _, a := range strings.Split(*attach, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.Attach = append(opts.Attach, a)
			}
		}
	}
	if *replicas > 0 {
		bin, err := findBinary()
		if err != nil {
			return err
		}
		opts.Binary = bin
		if opts.Dir == "" {
			d, err := os.MkdirTemp("", "cachesyncc-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(d)
			opts.Dir = d
		}
	}

	c, err := cluster.New(opts)
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portPath != "" {
		if err := portfile.Write(*portPath, ln.Addr().String()); err != nil {
			return err
		}
		defer os.Remove(*portPath)
	}
	fmt.Printf("cachesyncc listening on %s (spawned=%d attached=%d dir=%s)\n",
		ln.Addr(), *replicas, len(opts.Attach), opts.Dir)

	hs := &http.Server{Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("cachesyncc: shutting down fleet")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func main() {
	flag.Parse()
	if err := run(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cachesyncc:", err)
		os.Exit(1)
	}
}
