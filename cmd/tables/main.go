// Command tables regenerates the paper's Table 1 (the protocol
// evolution matrix, cross-checked against the published values) and
// Table 2 (the innovation summary), and runs the quantitative
// experiment sweeps E1-E21 that ground the paper's qualitative
// claims. All regeneration goes through the parallel experiment
// engine (internal/runner): jobs fan out over a worker pool, results
// merge in job order (parallel output is byte-identical to
// sequential), and an on-disk cache under .runnercache/ skips jobs
// whose code and configuration are unchanged.
//
//	go run ./cmd/tables                     # everything, -j GOMAXPROCS
//	go run ./cmd/tables -j 8               # explicit pool size
//	go run ./cmd/tables -only E3           # one experiment
//	go run ./cmd/tables -sweep procs=2..8  # scaling sweep
//
// The golden tests of internal/report pin every artifact's full text.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cachesync/internal/report"
	"cachesync/internal/runner"
)

var (
	only    = flag.String("only", "", "run only the named experiment (E1..E21), 'ablations', or 'tables'")
	csv     = flag.Bool("csv", false, "emit experiment tables as CSV")
	workers = flag.Int("j", 0, "worker pool size (default GOMAXPROCS)")
	noCache = flag.Bool("nocache", false, "disable the .runnercache/ result cache")
	sweep   = flag.String("sweep", "", "fan the mixed workload across processor counts and all protocols, e.g. -sweep procs=2..8")
)

// runJobs executes a job list on the pool, with the result cache
// unless -nocache.
func runJobs(jobs []runner.Job) *runner.Result {
	opts := runner.Options{Workers: *workers}
	if !*noCache {
		c, err := runner.OpenCache("")
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: result cache disabled: %v\n", err)
		} else {
			opts.Cache = c
		}
	}
	res, err := runner.Run(jobs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}

func main() {
	flag.Parse()

	if *sweep != "" {
		procs, err := report.ParseSweepSpec(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res := runJobs(report.SweepJobs(report.SweepProtocols(), procs))
		fmt.Println(report.SweepTable(res.Output()).Render())
		fmt.Printf("sweep: %d cells, %d cached, %d workers, %.0f ms\n",
			len(res.Jobs), res.CachedCount(), res.Workers, float64(res.Wall.Microseconds())/1e3)
		return
	}

	// Print mode: the same selections the sequential driver offered.
	var jobs []runner.Job
	switch {
	case strings.EqualFold(*only, "ablations"):
		jobs = report.AblationJobs(*csv)
	case strings.EqualFold(*only, "tables"):
		jobs = report.TableJobs()
	case *only != "":
		id := strings.ToUpper(*only)
		if _, ok := report.Experiments[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have E1..E21)\n", *only)
			os.Exit(2)
		}
		for _, j := range report.ExperimentJobs(*csv) {
			if j.Name == id {
				jobs = []runner.Job{j}
			}
		}
	default:
		jobs = report.TableJobs()
		jobs = append(jobs, report.ExperimentJobs(*csv)...)
		jobs = append(jobs, report.AblationJobs(*csv)...)
	}
	res := runJobs(jobs)
	fmt.Print(res.Output())
	if !res.AllPass() {
		os.Exit(1)
	}
}
