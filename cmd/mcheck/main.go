// Command mcheck runs the bounded model checker: it enumerates every
// interleaving of processor operations on a tiny configuration and
// verifies the DESIGN §6 coherence invariants at each reachable state,
// for one protocol or all of them.
//
//	go run ./cmd/mcheck -protocol all -depth 5
//	go run ./cmd/mcheck -protocol bitar -procs 3 -blocks 2 -depth 6
//	go run ./cmd/mcheck -protocol bitar -arcs            # regenerate Figure 10 arcs
//	go run ./cmd/mcheck -protocol goodman -mutate drop-invalidate
//
// Exit status: 0 when every run verifies clean, 1 when a violation is
// found (the minimized counterexample is printed and replayed), 2 on
// usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

var (
	protoName = flag.String("protocol", "all", "protocol name, or \"all\"")
	list      = flag.Bool("list", false, "list protocols and mutants, then exit")
	procs     = flag.Int("procs", 2, "processors (1-8)")
	blocks    = flag.Int("blocks", 1, "blocks (1-4)")
	words     = flag.Int("words", 2, "words per block")
	depth     = flag.Int("depth", 5, "maximum interleaving length")
	workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
	maxStates = flag.Int("maxstates", 1<<21, "state-count cap")
	mutate    = flag.String("mutate", "", "inject a protocol fault (see -list); expects a violation")
	arcs      = flag.Bool("arcs", false, "record state-transition arcs and, for bitar, cross-check Figure 10")
	noSpeed   = flag.Bool("nospeedup", false, "skip the workers=1 rerun that measures parallel speedup")
	jsonOut   = flag.Bool("json", false, "emit one JSON summary per run instead of text")
	symmetry  = flag.Bool("symmetry", true, "explore modulo processor permutations (identical verdicts, up to procs! fewer states)")
	por       = flag.Bool("por", false, "partial-order reduction: a state that differs from the initial one in one block expands only that block's actions (identical verdicts and counterexamples, far fewer states at blocks>1)")
	memBudget = flag.Int64("mem-budget", 0, "visited-set RAM budget in bytes (0 = unbounded): over-budget shards seal to compressed sorted runs on disk")
	ckptDir   = flag.String("checkpoint", "", "directory for level-boundary checkpoints; a killed run restarts from the last completed level with -resume (single protocol only)")
	resume    = flag.Bool("resume", false, "with -checkpoint: resume the directory's checkpoint if one exists, start fresh otherwise")
	progress  = flag.Bool("progress", false, "report per-level progress on stderr: states/s plus visited-set bytes in RAM vs spilled runs")
	outFile   = flag.String("out", "", "also write the JSON summaries to this file (atomic rename; timing fields zeroed so reruns compare byte-for-byte)")
)

// summary is the JSON shape of one checker run.
type summary struct {
	*mcheck.Result
	Mutant     string  `json:"mutant,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	ArcsOK     *bool   `json:"figure10_ok,omitempty"`
	Confirmed  bool    `json:"sim_confirmed,omitempty"`
	Minimality string  `json:"minimality,omitempty"`
}

func main() {
	flag.Parse()
	if *list {
		fmt.Println("protocols:")
		for _, n := range protocol.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("mutants (-mutate):")
		for _, n := range mcheck.MutantNames() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	names := protocol.Names()
	if *protoName != "all" {
		if _, err := protocol.New(*protoName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*protoName}
	}
	// One checkpoint directory holds one run's state; a multi-protocol
	// sweep would clobber it at the second protocol.
	if *ckptDir != "" && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "mcheck: -checkpoint requires a single -protocol")
		os.Exit(2)
	}

	// Ctrl-C (or SIGTERM) cancels the exploration promptly mid-level
	// instead of letting a deep run finish its frontier first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	violated := false
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	var all []*summary
	for _, name := range names {
		s, err := runOne(ctx, name)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "mcheck: interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if s.Counterexample != nil {
			violated = true
		}
		all = append(all, s)
		if *jsonOut {
			if err := enc.Encode(s); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	if *outFile != "" {
		if err := writeSummaries(*outFile, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// A violation is the expected outcome of a mutant run; without
	// -mutate it means the protocol itself is broken.
	if violated {
		os.Exit(1)
	}
}

func runOne(ctx context.Context, name string) (*summary, error) {
	p := protocol.MustNew(name)
	if *mutate != "" {
		mp, err := mcheck.Mutate(p, *mutate)
		if err != nil {
			return nil, err
		}
		p = mp
	}
	opts := mcheck.Options{
		Protocol: p, Procs: *procs, Blocks: *blocks, Words: *words,
		Depth: *depth, Workers: *workers, MaxStates: *maxStates,
		RecordArcs: *arcs, Symmetry: *symmetry, POR: *por, Context: ctx,
		MemBudget: *memBudget, CheckpointDir: *ckptDir, Resume: *resume,
	}
	if *progress {
		opts.Progress = func(pi mcheck.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "progress: depth %-3d %10d states %12d transitions  %8.0f states/s  %s RAM",
				pi.Depth, pi.States, pi.Transitions, pi.StatesPerSec, fmtBytes(pi.RAMBytes))
			if pi.SpilledBytes > 0 {
				fmt.Fprintf(os.Stderr, " + %s spilled in %d runs", fmtBytes(pi.SpilledBytes), pi.SpillRuns)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	res, err := mcheck.Run(opts)
	if err != nil {
		return nil, err
	}
	s := &summary{Result: res, Mutant: *mutate}

	if !*jsonOut {
		status := "COHERENT"
		switch {
		case res.Counterexample != nil:
			status = "VIOLATION"
		case res.Truncated:
			status = "TRUNCATED"
		}
		mode := ""
		if res.Symmetry {
			mode = ", sym"
		}
		if res.POR {
			mode += ", por"
		}
		fmt.Printf("%-28s %-10s states=%-8d transitions=%-9d depth=%d/%d  %.0f states/s (%d workers%s, %v)\n",
			p.Name(), status, res.States, res.Transitions, res.DepthReached, res.Depth,
			res.StatesPerSec, res.Workers, mode, res.Elapsed.Round(time.Millisecond))
	}

	if res.Counterexample != nil {
		handleViolation(opts, s)
	} else if !*noSpeed && *workers > 1 {
		base, err := mcheck.Run(mcheck.Options{
			Protocol: p, Procs: *procs, Blocks: *blocks, Words: *words,
			Depth: *depth, Workers: 1, MaxStates: *maxStates, Symmetry: *symmetry,
			POR: *por, Context: ctx, MemBudget: *memBudget,
		})
		if err != nil {
			return nil, err
		}
		if base.StatesPerSec > 0 {
			s.Speedup = res.StatesPerSec / base.StatesPerSec
			if !*jsonOut {
				fmt.Printf("%-28s speedup %.2fx vs 1 worker (%.0f states/s)\n", "", s.Speedup, base.StatesPerSec)
			}
		}
	}

	if *arcs && res.Counterexample == nil {
		renderArcs(p, s)
	}
	return s, nil
}

// handleViolation prints the minimized counterexample, checks
// minimality (depth-1 must be clean), and replays the trace through
// the discrete-event engine when the trace is sim-representable.
func handleViolation(opts mcheck.Options, s *summary) {
	res := s.Result
	if !*jsonOut {
		fmt.Println()
		fmt.Print(mcheck.RenderCounterexample(opts, res.Counterexample))
	}

	short := opts
	short.Depth = len(res.Counterexample.Trace) - 1
	short.RecordArcs = false
	short.CheckpointDir = ""
	short.Resume = false
	short.Progress = nil
	if short.Depth >= 1 {
		if r2, err := mcheck.Run(short); err == nil && r2.Counterexample == nil && !r2.Truncated {
			s.Minimality = fmt.Sprintf("minimal: depth %d is clean (%d states)", short.Depth, r2.States)
		}
	} else {
		s.Minimality = "minimal: single-step counterexample"
	}
	if !*jsonOut && s.Minimality != "" {
		fmt.Printf("\n%s\n", s.Minimality)
	}

	replay, err := mcheck.SimReplay(opts, res.Counterexample)
	if err == nil {
		s.Confirmed = true
		if !*jsonOut {
			fmt.Println()
			fmt.Print(replay)
		}
	} else if !*jsonOut {
		fmt.Printf("\nsim replay skipped: %v\n", err)
	}
}

// renderArcs prints the reachability-derived transition arcs and, for
// the paper's own protocol, cross-checks them against the expected
// Figure 10 table.
func renderArcs(p protocol.Protocol, s *summary) {
	if !*jsonOut {
		fmt.Println()
		fmt.Print(mcheck.RenderArcs(p, s.Arcs))
	}
	if p.Name() != "bitar" {
		return
	}
	mismatches, unreached := mcheck.CrossCheckFigure10(s.Arcs)
	ok := len(mismatches) == 0 && len(unreached) == 0
	s.ArcsOK = &ok
	if *jsonOut {
		return
	}
	if ok {
		fmt.Println("figure 10 cross-check: all expected arcs reached with matching outcomes")
		return
	}
	for _, m := range mismatches {
		fmt.Printf("figure 10 mismatch: %s\n", m)
	}
	for _, u := range unreached {
		fmt.Printf("figure 10 unreached: %s\n", u)
	}
}

// writeSummaries writes the run summaries as a JSON array with timing
// fields zeroed, via tmp+rename: a kill-and-resume pair of invocations
// with the same -out produces byte-identical files iff exploration was
// byte-identical, which verify.sh asserts with cmp.
func writeSummaries(path string, all []*summary) error {
	norm := make([]summary, len(all))
	for i, s := range all {
		norm[i] = *s
		r := *s.Result
		r.Elapsed = 0
		r.StatesPerSec = 0
		norm[i].Result = &r
		norm[i].Speedup = 0
	}
	data, err := json.MarshalIndent(norm, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
