// Command loadgen drives cachesyncd with a concurrent open-loop load:
// requests fire at a fixed rate regardless of completions (the
// arrival process a real service sees), drawn from a mixed
// distribution of simulations, model checks, and sweeps with rotating
// parameters, and the run reports throughput and latency percentiles.
//
//	go run ./cmd/loadgen -selfhost -rate 25 -duration 3s
//	go run ./cmd/loadgen -addr 127.0.0.1:8344 -rate 50 -duration 10s
//	go run ./cmd/loadgen -portfile /tmp/port -smoke
//
// Two phases enforce the serving SLO:
//
//   - below the admission limit (the main phase), every response must
//     be 2xx — a 429 or 5xx here fails the run;
//   - under deliberate overload (the second phase, ~10× the sustainable
//     demand), the only acceptable non-2xx is a clean 429 from the
//     admission gate — a 5xx, a hang, or a connection error fails.
//
// The main phase must also complete at least 0.3 × -rate requests per
// second, keep its median latency at or under 1 s, and tag every 2xx
// response with X-Cache: a server, or a fleet, that serves less than
// that of the offered load, answers a thousand times slower than it
// should, or returns work it cannot say it cached or computed fails
// the run however well it answers.
// -selfhost embeds the daemon in-process on 127.0.0.1:0, so the
// run needs no process management; -smoke is the one-shot health
// probe verify.sh uses against an externally started daemon.
//
// Fleet runs: -addr takes a comma-separated target list (client-side
// round-robin), or point a single -addr/-portfile at a cachesyncc
// coordinator. -retries honors 429 Retry-After hints with jitter.
// -chaos-kill SIGKILLs a replica (by pidfile) mid-run and summarizes
// the kill window separately — the run still demands zero responses
// that are neither 2xx nor clean 429, and -chaos-recover additionally
// requires the coordinator to report the fleet fully healthy again.
// X-Cache headers are tallied into a fleet cache-hit ratio.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cachesync/internal/portfile"
	_ "cachesync/internal/protocol/all"
	"cachesync/internal/serve"
	"cachesync/internal/stats"
)

var (
	addrFlag    = flag.String("addr", "", "target address (host:port); a comma-separated list round-robins client-side across targets")
	portFlag    = flag.String("portfile", "", "read the target address from this file (polled until it appears)")
	selfhost    = flag.Bool("selfhost", false, "embed the daemon in-process on 127.0.0.1:0")
	shWork      = flag.Int("workers", 0, "selfhost: execution width (0 = GOMAXPROCS)")
	shQueue     = flag.Int("queue", 64, "selfhost: admission queue length")
	profile     = flag.String("profile", "mixed", "main-phase request mix: mixed (simulate/check/sweep rotation) | simheavy (all engine-bound simulations, unique seeds, checker off)")
	rate        = flag.Float64("rate", 25, "open-loop arrival rate, requests/second")
	duration    = flag.Duration("duration", 3*time.Second, "main-phase length")
	conc        = flag.Int("conc", 256, "client-side cap on outstanding requests")
	overload    = flag.Bool("overload", true, "run the overload phase (expect only clean 429s)")
	requireShed = flag.Bool("require-shed", false, "fail if the overload phase sheds nothing (use with -selfhost and pinned -workers/-queue, where capacity is known)")
	smoke       = flag.Bool("smoke", false, "one-shot probe: /healthz, one simulate, one check; then exit")
	smokePprof  = flag.Bool("expect-pprof", false, "with -smoke, also require GET /debug/pprof/cmdline to answer 200 (daemon started with -pprof)")
	wait        = flag.Duration("wait", 15*time.Second, "how long -portfile/-smoke wait for the daemon")
	retries     = flag.Int("retries", 2, "main-phase retries of a 429, honoring the server's Retry-After hint plus jitter (0 = report the 429 as-is)")
	warmup      = flag.Duration("warmup", 0, "fire the request mix unmeasured for this long before phase 1")
	chaosKill   = flag.String("chaos-kill", "", "pidfile of a replica to SIGKILL mid-run (fleet chaos; the run still demands zero non-2xx/non-429)")
	chaosAt     = flag.Duration("chaos-at", 300*time.Millisecond, "when after phase-1 start to deliver the chaos kill")
	chaosDur    = flag.Duration("chaos-duration", 1500*time.Millisecond, "reporting window after the kill, summarized separately in the baseline")
	chaosWait   = flag.Bool("chaos-recover", false, "after phase 1, require the target's /healthz to report every replica healthy again (coordinator respawn)")
)

// minThroughput is the least main-phase throughput a run accepts, as
// a fraction of the offered -rate.
const minThroughput = 0.3

// maxMedianLatency is the slowest main-phase median latency a run
// accepts.
const maxMedianLatency = time.Second

// overloadFactor is the overload phase's rate as a multiple of -rate.
const overloadFactor = 16

// obench summarizes the overload phase.
type obench struct {
	Requests int
	OK       int
	Shed     int // clean 429s
	Other    int // anything else: must be zero
}

// cbench is the fleet cache view, computed from X-Cache headers.
type cbench struct {
	Hits      int
	Coalesced int
	Misses    int
	HitRatio  float64 // hits / (hits + misses)
}

// chaosb summarizes the replica-kill window: requests in flight while
// a fleet member was dead must still come back 2xx or clean 429.
type chaosb struct {
	KillAtS   float64
	Requests  int
	OK        int
	Shed      int
	Other     int // must be zero
	Recovered bool
}

type result struct {
	code    int
	dur     time.Duration
	err     error
	at      time.Time // send time, for chaos-window attribution
	xcache  string    // X-Cache header: hit | coalesced | miss
	retried bool
}

// protocols rotated through by the mixed distribution.
var mixProtocols = []string{"bitar", "illinois", "goodman", "berkeley"}

// request builds the i-th request of the deterministic mix: 70%
// simulations over 16 rotating seeds, 20% model checks over rotating
// protocols, 10% small sweeps. Rotating parameters defeat the daemon's
// dedup/cache enough that the pool does real work, while the repeats
// exercise the coalescing and cache paths too.
//
// The heavy (overload) mix is all simulations with a unique seed per
// request: every request then needs its own execution slot — the
// single-flight dedup cannot absorb the burst — so the admission gate
// itself is what gets exercised. Each is a checked p16×4000 run, about
// 45 ms of one worker on a 2-vCPU VM, so the overload rate is several
// times what a small pool can serve.
func request(i int, heavy bool) (path string, body map[string]any) {
	// The simheavy profile is all simulation, sized so the simulator
	// core — not the result cache, dedup, or coherence checker —
	// dominates each request: unique seeds defeat caching, and the
	// checker is off because it costs a full-machine scan per bus
	// transaction and would drown the engine being measured. This is
	// the profile where the direct-execution engine shows up in
	// serving throughput.
	if *profile == "simheavy" && !heavy {
		return "/v1/simulate", map[string]any{
			"protocol": mixProtocols[i%len(mixProtocols)],
			"procs":    8,
			"ops":      2_000,
			"seed":     1 + i,
			"nocheck":  true,
		}
	}
	if heavy {
		return "/v1/simulate", map[string]any{
			"protocol": mixProtocols[i%len(mixProtocols)],
			"procs":    16,
			"ops":      4_000,
			"seed":     1 + i,
		}
	}
	switch {
	case i%10 < 7:
		return "/v1/simulate", map[string]any{
			"protocol": mixProtocols[i%len(mixProtocols)],
			"ops":      200,
			"seed":     1 + i%16,
		}
	case i%10 < 9:
		return "/v1/check", map[string]any{
			"protocol": mixProtocols[i%len(mixProtocols)],
			"depth":    4,
		}
	default:
		return "/v1/sweep", map[string]any{
			"protocols": []string{mixProtocols[i%len(mixProtocols)]},
			"procs":     []int{1, 2},
			"ops":       100,
			"seed":      1 + i%16,
		}
	}
}

func post(client *http.Client, base, path string, body any) result {
	buf, err := json.Marshal(body)
	if err != nil {
		return result{err: err}
	}
	t0 := time.Now()
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return result{err: err, dur: time.Since(t0), at: t0}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r := result{code: resp.StatusCode, dur: time.Since(t0), at: t0, xcache: resp.Header.Get("X-Cache")}
	if r.code == http.StatusTooManyRequests {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			r.dur = time.Duration(s) * time.Second // reused as the hint, not a latency
		}
	}
	return r
}

// postRetry posts and, when the server sheds with a 429, honors its
// Retry-After hint (clamped to a second, fuzzed with jitter so a
// synchronized burst doesn't re-arrive as a synchronized burst) up to
// maxRetries times. The returned latency covers the whole exchange,
// backoff included — the client-visible cost of being shed.
func postRetry(client *http.Client, base, path string, body any, maxRetries int, jit *lockedRand) result {
	t0 := time.Now()
	var r result
	for attempt := 0; ; attempt++ {
		r = post(client, base, path, body)
		if attempt >= maxRetries || r.err != nil || r.code != http.StatusTooManyRequests {
			break
		}
		hint := r.dur
		if hint <= 0 || hint > time.Second {
			hint = time.Second
		}
		time.Sleep(hint/2 + jit.durn(hint/2))
		r.retried = true
	}
	retried := r.retried
	r = result{code: r.code, err: r.err, xcache: r.xcache, at: t0, dur: time.Since(t0), retried: retried}
	return r
}

// lockedRand is a mutex-guarded jitter source shared by the phase
// workers; seeded fixed so runs are as repeatable as scheduling allows.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand() *lockedRand { return &lockedRand{r: rand.New(rand.NewSource(1))} }

func (l *lockedRand) durn(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.r.Int63n(int64(max)))
}

// phase fires requests open-loop, one per tick of every, for dur,
// capping outstanding requests at conc (ticks beyond the cap are
// counted, not sent — a client-side saturation signal, not a server
// verdict). heavy selects the overload mix. Request indices start at
// off so phases draw different slices of the rotation. Multiple bases
// are rotated per-request (client-side load balancing across targets).
func phase(client *http.Client, bases []string, every, dur time.Duration, conc int, off int, heavy bool) ([]result, int) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	deadline := time.After(dur)

	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
		skipped int
	)
	slots := make(chan struct{}, conc)
	jit := newLockedRand()
	i := off
	for {
		select {
		case <-deadline:
			wg.Wait()
			return results, skipped
		case <-ticker.C:
			select {
			case slots <- struct{}{}:
			default:
				skipped++
				continue
			}
			path, body := request(i, heavy)
			base := bases[i%len(bases)]
			i++
			wg.Add(1)
			go func() {
				defer wg.Done()
				var r result
				if heavy || *retries <= 0 {
					r = post(client, base, path, body)
				} else {
					r = postRetry(client, base, path, body, *retries, jit)
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
				<-slots
			}()
		}
	}
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon not healthy after %v: %v", limit, err)
			}
			return fmt.Errorf("daemon not healthy after %v", limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// resolveBases finds the targets: -addr (possibly a comma list),
// -portfile (polled until complete), or -selfhost. The returned stop
// function tears selfhost down.
func resolveBases() (bases []string, stop func(), err error) {
	stop = func() {}
	switch {
	case *selfhost:
		s := serve.New(serve.Config{Workers: *shWork, Queue: *shQueue})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, stop, err
		}
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(ln) }()
		return []string{"http://" + ln.Addr().String()}, func() {
			_ = hs.Close()
			s.Close()
		}, nil
	case *addrFlag != "":
		for _, a := range strings.Split(*addrFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				bases = append(bases, "http://"+a)
			}
		}
		if len(bases) == 0 {
			return nil, stop, fmt.Errorf("-addr lists no usable address")
		}
		return bases, stop, nil
	case *portFlag != "":
		ctx, cancel := context.WithTimeout(context.Background(), *wait)
		defer cancel()
		addr, err := portfile.Wait(ctx, *portFlag)
		if err != nil {
			return nil, stop, fmt.Errorf("portfile %s did not appear within %v", *portFlag, *wait)
		}
		return []string{"http://" + addr}, stop, nil
	default:
		return nil, stop, fmt.Errorf("one of -addr, -portfile, -selfhost is required")
	}
}

// scheduleChaos arms the replica kill: chaosAt after now, SIGKILL the
// pid in the pidfile. Returns a function reporting the actual kill
// time (zero until fired).
func scheduleChaos() func() time.Time {
	var mu sync.Mutex
	var killedAt time.Time
	start := time.Now()
	go func() {
		time.Sleep(*chaosAt)
		raw, err := os.ReadFile(*chaosKill)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: read pidfile: %v\n", err)
			return
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
		if err != nil || pid <= 0 {
			fmt.Fprintf(os.Stderr, "chaos: bad pidfile %q\n", raw)
			return
		}
		if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: kill %d: %v\n", pid, err)
			return
		}
		mu.Lock()
		killedAt = time.Now()
		mu.Unlock()
		fmt.Printf("chaos: SIGKILL pid %d at +%v\n", pid, time.Since(start).Round(time.Millisecond))
	}()
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return killedAt
	}
}

// waitRecovered polls the coordinator's /healthz until every replica
// is healthy again (respawn + re-admission complete).
func waitRecovered(client *http.Client, base string, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var hz struct {
				OK      bool `json:"ok"`
				Healthy int  `json:"healthy"`
				Total   int  `json:"total"`
			}
			err := json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.OK && hz.Healthy == hz.Total {
				return true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// runSmoke is verify.sh's probe: healthz, one simulation, one check.
func runSmoke(client *http.Client, base string) error {
	if err := waitHealthy(client, base, *wait); err != nil {
		return err
	}
	r := post(client, base, "/v1/simulate", map[string]any{"protocol": "bitar", "ops": 300})
	if r.err != nil || r.code != http.StatusOK {
		return fmt.Errorf("smoke simulate: code=%d err=%v", r.code, r.err)
	}
	r = post(client, base, "/v1/check", map[string]any{"protocol": "bitar", "depth": 4})
	if r.err != nil || r.code != http.StatusOK {
		return fmt.Errorf("smoke check: code=%d err=%v", r.code, r.err)
	}
	if *smokePprof {
		resp, err := client.Get(base + "/debug/pprof/cmdline")
		if err != nil {
			return fmt.Errorf("smoke pprof: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke pprof: code=%d, want 200", resp.StatusCode)
		}
		fmt.Println("smoke: OK (healthz, simulate, check, pprof)")
		return nil
	}
	fmt.Println("smoke: OK (healthz, simulate, check)")
	return nil
}

// phaseTicks checks, before any phase starts, the flags the phases run
// with, and returns the arrival interval of the main phase and, with
// -overload, of the overload phase. Every rate a phase runs at must
// have a tick interval that is a positive time.Duration, and -conc
// must let at least one request be in flight.
func phaseTicks(rate float64, conc int, overload bool) (every, overEvery time.Duration, err error) {
	if conc < 1 {
		return 0, 0, fmt.Errorf("-conc %d: at least 1 request must be allowed in flight", conc)
	}
	if every, err = tick(rate); err != nil {
		return 0, 0, fmt.Errorf("-rate %g: %w", rate, err)
	}
	if overload {
		if overEvery, err = tick(overloadFactor * rate); err != nil {
			return 0, 0, fmt.Errorf("-rate %g: the overload phase's %d× rate: %w", rate, overloadFactor, err)
		}
	}
	return every, overEvery, nil
}

// tick is the interval between arrivals at rps requests per second.
func tick(rps float64) (time.Duration, error) {
	ns := float64(time.Second) / rps
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("tick interval of %g ns is not a positive duration", ns)
	}
	return time.Duration(ns), nil
}

func run() error {
	every, overEvery, err := phaseTicks(*rate, *conc, *overload)
	if err != nil {
		return err
	}
	bases, stop, err := resolveBases()
	if err != nil {
		return err
	}
	defer stop()
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: *conc},
	}
	if *smoke {
		return runSmoke(client, bases[0])
	}
	if *profile != "mixed" && *profile != "simheavy" {
		return fmt.Errorf("unknown -profile %q (mixed | simheavy)", *profile)
	}
	for _, base := range bases {
		if err := waitHealthy(client, base, *wait); err != nil {
			return err
		}
	}

	if *warmup > 0 {
		fmt.Printf("warmup: %v of the mix, unmeasured\n", *warmup)
		_, _ = phase(client, bases, every, *warmup, *conc, 200_000, false)
	}
	var killedAt func() time.Time
	if *chaosKill != "" {
		killedAt = scheduleChaos()
	}

	// Phase 1: below the admission limit. Zero tolerance for non-2xx —
	// with chaos enabled, for non-2xx-non-429: a mid-run replica kill
	// may legitimately shed load for a beat, but must never corrupt or
	// drop a request.
	fmt.Printf("phase 1: open loop at %.0f req/s for %v against %s\n", *rate, *duration, strings.Join(bases, ","))
	t0 := time.Now()
	results, skipped := phase(client, bases, every, *duration, *conc, 0, false)
	elapsed := time.Since(t0)

	var lat stats.Histogram
	cb := &cbench{}
	ok, bad, shed, retried, tagged, untagged := 0, 0, 0, 0, 0, 0
	for _, r := range results {
		if r.retried {
			retried++
		}
		switch {
		case r.err == nil && r.code >= 200 && r.code < 300:
			ok++
			lat.Observe(r.dur.Microseconds())
			switch r.xcache {
			case "hit":
				cb.Hits++
				tagged++
			case "coalesced":
				cb.Coalesced++
				tagged++
			case "miss":
				cb.Misses++
				tagged++
			default:
				untagged++
			}
		case r.err == nil && r.code == http.StatusTooManyRequests && *chaosKill != "":
			shed++
		default:
			bad++
			fmt.Fprintf(os.Stderr, "below-limit failure: code=%d err=%v\n", r.code, r.err)
		}
	}
	if cb.Hits+cb.Misses > 0 {
		cb.HitRatio = float64(cb.Hits) / float64(cb.Hits+cb.Misses)
	}
	throughput := float64(ok) / elapsed.Seconds()
	fmt.Printf("phase 1: %d requests, %d ok, %d non-2xx, %d client-skipped; %.1f req/s; p50=%.1fms p90=%.1fms p99=%.1fms\n",
		len(results), ok, bad+shed, skipped, throughput, float64(lat.Percentile(50))/1000,
		float64(lat.Percentile(90))/1000, float64(lat.Percentile(99))/1000)
	if tagged > 0 {
		fmt.Printf("phase 1: fleet cache: %d hit, %d coalesced, %d miss (hit ratio %.2f); %d retried\n",
			cb.Hits, cb.Coalesced, cb.Misses, cb.HitRatio, retried)
	}
	if bad > 0 {
		return fmt.Errorf("%d non-2xx responses below the admission limit", bad)
	}
	if floor := minThroughput * *rate; throughput < floor {
		return fmt.Errorf("phase 1 completed %.1f req/s, below the floor of %.1f req/s (%.1f × the offered %.1f)",
			throughput, floor, minThroughput, *rate)
	}
	if p50 := time.Duration(lat.Percentile(50)) * time.Microsecond; p50 > maxMedianLatency {
		return fmt.Errorf("phase 1 median latency %v, above the ceiling of %v", p50, maxMedianLatency)
	}
	if untagged > 0 {
		return fmt.Errorf("%d of %d 2xx responses carried no X-Cache header", untagged, ok)
	}

	if *chaosKill != "" {
		ka := time.Time{}
		if killedAt != nil {
			ka = killedAt()
		}
		if ka.IsZero() {
			return fmt.Errorf("chaos kill never fired (pidfile %s)", *chaosKill)
		}
		ch := &chaosb{KillAtS: ka.Sub(t0).Seconds()}
		for _, r := range results {
			if r.at.Before(ka) || r.at.After(ka.Add(*chaosDur)) {
				continue
			}
			ch.Requests++
			switch {
			case r.err == nil && r.code >= 200 && r.code < 300:
				ch.OK++
			case r.err == nil && r.code == http.StatusTooManyRequests:
				ch.Shed++
			default:
				ch.Other++
			}
		}
		if *chaosWait {
			ch.Recovered = waitRecovered(client, bases[0], *wait)
		}
		fmt.Printf("chaos: kill at +%.2fs; window: %d requests, %d ok, %d shed, %d other; recovered=%v\n",
			ch.KillAtS, ch.Requests, ch.OK, ch.Shed, ch.Other, ch.Recovered)
		if ch.Other > 0 {
			return fmt.Errorf("chaos window saw %d responses that were neither 2xx nor 429", ch.Other)
		}
		if ch.Requests == 0 {
			return fmt.Errorf("chaos window covered no requests: lengthen -duration or move -chaos-at earlier")
		}
		if *chaosWait && !ch.Recovered {
			return fmt.Errorf("fleet did not recover to full health within %v of the kill", *wait)
		}
	}

	// Phase 2: deliberate overload — heavy requests at high rate. The
	// only acceptable outcome per request is success or a clean 429.
	if *overload {
		fmt.Printf("phase 2: overload at %.0f req/s (unique heavy simulations) for 1.5s\n", overloadFactor**rate)
		oresults, _ := phase(client, bases, overEvery, 1500*time.Millisecond, *conc, 100_000, true)
		ob := &obench{Requests: len(oresults)}
		for _, r := range oresults {
			switch {
			case r.err == nil && r.code >= 200 && r.code < 300:
				ob.OK++
			case r.err == nil && r.code == http.StatusTooManyRequests:
				ob.Shed++
			default:
				ob.Other++
				fmt.Fprintf(os.Stderr, "overload non-429 failure: code=%d err=%v\n", r.code, r.err)
			}
		}
		fmt.Printf("phase 2: %d requests, %d ok, %d shed (429), %d other\n",
			ob.Requests, ob.OK, ob.Shed, ob.Other)
		if ob.Other > 0 {
			return fmt.Errorf("overload produced %d responses that were neither 2xx nor 429", ob.Other)
		}
		if ob.Shed == 0 {
			if *requireShed {
				return fmt.Errorf("overload shed nothing: the admission gate never rejected — either capacity flags are too generous or backpressure is broken")
			}
			fmt.Println("note: overload phase shed nothing (server kept up); admission gate not exercised")
		}
	}

	return nil
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
