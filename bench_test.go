// Benchmarks regenerating every table and figure of the paper plus
// the quantitative experiments E1-E14 (see DESIGN.md §5 and
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks double as the experiment harness: each iteration
// regenerates the artifact, and key quantities are reported as custom
// metrics so `go test -bench` output records the measured values.
package cachesync_test

import (
	"fmt"
	"runtime"
	"testing"

	"cachesync"
	"cachesync/internal/aquarius"
	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	"cachesync/internal/report"
	"cachesync/internal/runner"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// --- Table reproductions -------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := report.Table1()
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
		if diffs := report.VerifyTable1(); len(diffs) != 0 {
			b.Fatalf("Table 1 diverges from the paper: %v", diffs)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(report.Table2()) == 0 {
			b.Fatal("empty table 2")
		}
	}
}

// --- Figure reproductions ------------------------------------------------

func benchFigure(b *testing.B, f func() report.FigureResult) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := f()
		if !r.Pass {
			b.Fatalf("%s diverges from the paper:\n%s", r.Name, r.Render())
		}
	}
}

func BenchmarkFigure1(b *testing.B) { benchFigure(b, report.Figure1) }
func BenchmarkFigure2(b *testing.B) { benchFigure(b, report.Figure2and3) }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, report.Figure2and3) }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, report.Figure4) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, report.Figure5) }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, report.Figure6) }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, report.Figure7) }
func BenchmarkFigure8(b *testing.B) { benchFigure(b, report.Figure8) }
func BenchmarkFigure9(b *testing.B) { benchFigure(b, report.Figure9) }

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if diffs := report.VerifyFigure10(); len(diffs) != 0 {
			b.Fatalf("Figure 10 diverges: %v", diffs)
		}
		if report.Figure10Processor().NumRows() != 8 || report.Figure10Bus().NumRows() != 8 {
			b.Fatal("figure 10 tables incomplete")
		}
	}
}

// BenchmarkFigure11 runs the two-tier Aquarius system (Figure 11)
// under the Prolog service-queue pattern.
func BenchmarkFigure11(b *testing.B) {
	const procs = 4
	var syncCycles, xbarAccesses int64
	for i := 0; i < b.N; i++ {
		a := aquarius.New(aquarius.DefaultConfig(procs))
		l := workload.Layout{G: a.Sync.Geometry()}
		ws := make([]func(*sim.Proc), procs)
		for p := 0; p < procs; p++ {
			p := p
			ws[p] = func(pr *sim.Proc) {
				for k := 0; k < 20; k++ {
					pr.InstrFetch(l.G.Base(l.PrivateBlock(p, k%8)))
					lock := l.LockAddr(2 + (p+1)%procs)
					syncprim.Acquire(pr, syncprim.CacheLock, lock)
					pr.Write(l.G.Base(l.SharedBlock(1+(p+1)%procs)), uint64(k))
					syncprim.Release(pr, syncprim.CacheLock, lock)
				}
			}
		}
		if err := a.Run(ws); err != nil {
			b.Fatal(err)
		}
		syncCycles = a.Sync.Counts.Get("bus.cycles")
		xbarAccesses = a.Counts.Get("xbar.access")
	}
	b.ReportMetric(float64(syncCycles), "syncbus-cycles")
	b.ReportMetric(float64(xbarAccesses), "xbar-accesses")
}

// --- Experiments E1-E14 --------------------------------------------------

func benchExperiment(b *testing.B, f func() *stats.Table) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		t := f()
		rows = t.NumRows()
		if rows == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1LockCost(b *testing.B)          { benchExperiment(b, report.E1LockCost) }
func BenchmarkE2BusyWait(b *testing.B)          { benchExperiment(b, report.E2BusyWait) }
func BenchmarkE3SharedData(b *testing.B)        { benchExperiment(b, report.E3SharedData) }
func BenchmarkE4TransferUnits(b *testing.B)     { benchExperiment(b, report.E4TransferUnits) }
func BenchmarkE5InvalidateSignal(b *testing.B)  { benchExperiment(b, report.E5InvalidateSignal) }
func BenchmarkE6ReadForWrite(b *testing.B)      { benchExperiment(b, report.E6ReadForWrite) }
func BenchmarkE7SourcePolicy(b *testing.B)      { benchExperiment(b, report.E7SourcePolicy) }
func BenchmarkE8WriteNoFetch(b *testing.B)      { benchExperiment(b, report.E8WriteNoFetch) }
func BenchmarkE9Protocols(b *testing.B)         { benchExperiment(b, report.E9Protocols) }
func BenchmarkE10RudolphSegall(b *testing.B)    { benchExperiment(b, report.E10RudolphSegall) }
func BenchmarkE11Directory(b *testing.B)        { benchExperiment(b, report.E11Directory) }
func BenchmarkE12RMWMethods(b *testing.B)       { benchExperiment(b, report.E12RMWMethods) }
func BenchmarkE13IO(b *testing.B)               { benchExperiment(b, report.E13IO) }
func BenchmarkE14LockPurge(b *testing.B)        { benchExperiment(b, report.E14LockPurge) }
func BenchmarkE15Broadcast(b *testing.B)        { benchExperiment(b, report.E15Broadcast) }
func BenchmarkE16WorkWhileWaiting(b *testing.B) { benchExperiment(b, report.E16WorkWhileWaiting) }
func BenchmarkE17SleepWait(b *testing.B)        { benchExperiment(b, report.E17SleepWait) }
func BenchmarkE18DualBus(b *testing.B)          { benchExperiment(b, report.E18DualBus) }
func BenchmarkE19Aquarius(b *testing.B)         { benchExperiment(b, report.E19Aquarius) }
func BenchmarkE20BroadcastFraction(b *testing.B) {
	benchExperiment(b, report.E20BroadcastFraction)
}
func BenchmarkE21Disaggregated(b *testing.B) { benchExperiment(b, report.E21Disaggregated) }

// Ablations of the proposal's individual design choices.
func BenchmarkAblationWaiterPriority(b *testing.B)  { benchExperiment(b, report.A1WaiterPriority) }
func BenchmarkAblationConcurrentFlush(b *testing.B) { benchExperiment(b, report.A2ConcurrentFlush) }
func BenchmarkAblationSourceRetention(b *testing.B) { benchExperiment(b, report.A3SourceRetention) }
func BenchmarkAblationTransferUnits(b *testing.B)   { benchExperiment(b, report.A4UnitState) }
func BenchmarkAblationReplacement(b *testing.B)     { benchExperiment(b, report.A5Replacement) }

// --- Parallel experiment engine -------------------------------------------

// BenchmarkRunnerSuite regenerates the full artifact suite (tables,
// experiments, ablations, figures) through the parallel experiment
// engine, sequentially and with a GOMAXPROCS pool. The workers=1 to
// workers=N wall-clock ratio is the engine's parallel speedup over
// the suite (≈1.0 on a single-core host); the cache is off so every
// iteration regenerates every artifact.
func BenchmarkRunnerSuite(b *testing.B) {
	jobs := report.AllJobs(false)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(jobs, runner.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllPass() {
					b.Fatal("an artifact diverged from the paper")
				}
			}
			b.ReportMetric(float64(len(jobs)), "jobs")
		})
	}
}

// --- Raw engine throughput benchmarks -------------------------------------

// BenchmarkEngineLockHandoff measures raw simulated lock handoffs per
// real second under the paper's protocol.
func BenchmarkEngineLockHandoff(b *testing.B) {
	// The workload closures only read the layout, and the layout is a
	// pure function of the config — build both once outside the timed
	// loop so the benchmark times lock handoffs, not setup. A machine
	// still must be built per iteration: Run consumes it.
	newMachine := func() *cachesync.Machine {
		m, err := cachesync.New(cachesync.Config{Protocol: "bitar", Procs: 4})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	l := newMachine().Layout()
	ws := make([]cachesync.Workload, 4)
	for j := range ws {
		ws[j] = func(p *cachesync.Proc) {
			for k := 0; k < 25; k++ {
				cachesync.Acquire(p, cachesync.CacheLock, l.LockAddr(0))
				cachesync.Release(p, cachesync.CacheLock, l.LockAddr(0))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := newMachine().Run(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(4*25*b.N)/b.Elapsed().Seconds(), "handoffs/s")
}

// BenchmarkEngineMixedReferences measures simulated memory references
// per real second across protocols.
func BenchmarkEngineMixedReferences(b *testing.B) {
	for _, proto := range []string{"bitar", "illinois", "dragon", "writethrough"} {
		b.Run(proto, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := cachesync.New(cachesync.Config{Protocol: proto, Procs: 4})
				if err != nil {
					b.Fatal(err)
				}
				progs := workload.Mixed{Ops: 500, SharedBlocks: 8, PrivBlocks: 16,
					SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}.Programs(m.Layout(), 4)
				if err := m.RunPrograms(progs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(4*500*b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkSimEngine measures the engine core: simulated operations
// per real second with Program workloads pulled inline by the event
// loop — no goroutine, channel handshake, or scheduler park/unpark per
// operation. TestBaselineCounts pins the final cycles of the mixed
// runs and of lock/bitar (BENCH_sim.json); bench/'s engine workload
// times the engine end to end.
func BenchmarkSimEngine(b *testing.B) {
	const procs, ops = 8, 2000
	mixed := workload.Mixed{Ops: ops, SharedBlocks: 8, PrivBlocks: 24,
		SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}
	for _, proto := range []string{"bitar", "illinois", "dragon", "writethrough"} {
		b.Run("mixed/"+proto, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := cachesync.New(cachesync.Config{Protocol: proto, Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.RunPrograms(mixed.Programs(m.Layout(), procs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(procs*ops*b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
	for _, proto := range []string{"bitar", "illinois"} {
		b.Run("lock/"+proto, func(b *testing.B) {
			scheme, err := cachesync.BestScheme(proto)
			if err != nil {
				b.Fatal(err)
			}
			lc := workload.LockContention{Locks: 1, Iters: 100, HoldCycles: 20,
				ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: 1}
			for i := 0; i < b.N; i++ {
				m, err := cachesync.New(cachesync.Config{Protocol: proto, Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.RunPrograms(lc.Programs(m.Layout(), procs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkMcheck measures the bounded model checker's exploration
// rate (states/sec) on the Bitar-Despain protocol at a mid-size
// configuration: with one worker, with GOMAXPROCS workers (the ratio
// is the parallel speedup of the hash-sharded BFS, ≈1.0 on a
// single-core host), and with processor-symmetry reduction. The
// symmetry variant reports a lower states/s (each state pays procs!
// canonicalization permutations) but explores ~procs!-fold fewer
// states, so its wall-clock per verification — also reported, as
// ms/verify — is the lowest.
func BenchmarkMcheck(b *testing.B) {
	run := func(b *testing.B, workers int, symmetry bool) {
		var states int64
		for i := 0; i < b.N; i++ {
			res, err := mcheck.Run(mcheck.Options{
				Protocol: protocol.MustNew("bitar"),
				Procs:    3, Blocks: 1, Words: 2, Depth: 6,
				Workers: workers, Symmetry: symmetry,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Counterexample != nil {
				b.Fatalf("unexpected violation: %v", res.Counterexample.Violations)
			}
			states += res.States
		}
		b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/verify")
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { run(b, workers, false) })
	}
	b.Run(fmt.Sprintf("workers=%d/symmetry", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		run(b, runtime.GOMAXPROCS(0), true)
	})
}
