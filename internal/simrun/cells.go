package simrun

import (
	"context"

	"cachesync/internal/runner"
)

// Expand crosses protos × procs × remotes over base and returns the
// normalized cell configurations, protocols outermost and remote
// latencies innermost. It is the one sweep expansion: cmd/cachesim's
// -sweep-procs/-sweep-remote and the daemon's /v1/sweep both build
// their cells here, so the same axes name the same cells in the same
// order everywhere.
func Expand(base Config, protos []string, procs, remotes []int) []Config {
	cfgs := make([]Config, 0, len(protos)*len(procs)*len(remotes))
	for _, p := range protos {
		for _, n := range procs {
			for _, r := range remotes {
				cfg := base
				cfg.Protocol, cfg.Procs, cfg.RemoteCycles = p, n, r
				cfgs = append(cfgs, cfg.Normalize())
			}
		}
	}
	return cfgs
}

// RunCells executes a batch of simulation configs on runner.Ordered
// and delivers the results in submission order: deliver is called
// exactly once per completed cell, on the caller's goroutine, with
// deliver(i, ...) strictly after deliver(i-1, ...). Output is
// therefore byte-identical to a sequential loop at any worker count —
// each cell builds its own sim.System, so cells share nothing but
// read-only configuration.
//
// workers < 1 means GOMAXPROCS; no more workers start than there are
// cells. The first cell error cancels the cells still running, starts
// no more, and is returned (cells before it are still delivered);
// cancellation of ctx does the same.
func RunCells(ctx context.Context, cfgs []Config, workers int, deliver func(int, Result)) error {
	return runner.Ordered(ctx, len(cfgs), workers,
		func(ctx context.Context, i int) (Result, error) { return Run(ctx, cfgs[i]) },
		deliver)
}
