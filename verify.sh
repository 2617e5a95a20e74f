#!/bin/sh
# Repository verification: formatting, static checks, the full test
# suite (which holds every byte-pinned output to its committed file
# through internal/golden: the report tables and figures, the 13
# compiled transition tables, the workload digests, the lock-trace
# report and DEEP_mcheck.json; a missing file fails), the bench/
# module's vet and tests, race-detector passes over
# every internally concurrent path
# (model-checker BFS, partial-order reduction, sharded exploration,
# sim engine, the ordered executor under runner jobs and sweep cells,
# bus, scheduler queue, serving daemon, single-flight group), the fuzz
# targets in seed-corpus mode (trace codecs, workload replay, run
# files, shard absorb, and the simulate, sweep, check and shard-open
# request decoders),
# the differential sim<->mcheck harness,
# the incremental online checker against the full invariant sweep,
# the distributed-check differential (a /v1/check sharded across a
# 3-replica fleet must be byte-identical to a single replica's
# answer, counterexamples included — and stay so when a replica is
# killed mid-check and its session fails over via the shared
# checkpoint root), the mcheck kill-and-resume smoke (SIGKILL a
# checkpointing run, resume it, byte-identical summary) plus the
# pinned disk-backed bitar p4 exhaustive check (TestDeepCheckGolden),
# the table-vs-method differential plus the
# transition-table freshness gate (committed goldens must match the
# tables compiled from the protocol code, every refusal keeps its
# error text, rejected Complete cells keep their panic text, and a
# compile of every protocol stays within its allocation budget), the
# workload digest golden
# and the blocking-adapter differential, a live
# cachesyncd smoke (start, probe — including the -pprof diagnostic
# mount — graceful stop), the steady-state allocation gate of the
# engine, the baseline-counts golden (every cycle, broadcast, state,
# transition and spill count in BENCH_sim.json, BENCH_aquarius.json
# and BENCH_mcheck.json, exact on any host), one wall-clock check (the
# disk-backed exploration holds half its in-RAM sibling's states/s,
# both measured in one process), and
# the serving and cluster load runs: every request 2xx and tagged
# with X-Cache below the admission limit, only clean 429s under
# overload, at least 0.3× the offered rate completed at a median
# latency of at most 1 s — the cluster run through a 3-replica
# cachesyncc fleet (sweeps routed whole to their owning replica) with
# a mid-run replica SIGKILL that must produce zero responses other
# than 2xx/clean-429, plus respawn and re-admission to full health.
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== bench module (its own go.mod, so go test ./... does not build it)"
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race (mcheck + sim smoke)"
go test -race -short -run 'TestSmokeAllProtocols|TestDeterministicAcrossWorkers|TestSymmetryEquivalence|TestDeterministicWorkersMutant|TestPOREquivalence|TestPORMutant|TestShardedEquivalence|TestShardedTruncation|TestShardedRejectsPOR|TestSpillEquivalence|TestPORSpillBudget|TestKillResumeByteIdentical|TestKillResumePOR|TestShardSessionCheckpointResume|TestShardedHonorsCancel' ./internal/mcheck/
go test -race -short ./internal/sim/ ./internal/trace/ ./internal/syncprim/

echo "== go test -race (ordered executor: runner jobs and sweep cells, bus, scheduler queue)"
go test -race -short ./internal/runner/ ./internal/simrun/ ./internal/bus/ ./internal/schedqueue/

echo "== go test -race (interconnect fabrics, two-tier Aquarius machine)"
go test -race -short ./internal/interconnect/ ./internal/aquarius/

echo "== go test -race (serving daemon, single-flight)"
go test -race -short ./internal/serve/ ./internal/flight/

echo "== go test -race (cluster coordinator, portfile handshake)"
go test -race -short ./internal/cluster/ ./internal/portfile/

echo "== distributed-check differential (sharded /v1/check vs one replica, with and without a replica dying mid-check)"
go test -run 'TestShardedCheckMatchesSingle|TestShardedCheckValidation|TestShardedCheckSurvivesReplicaDeath' ./internal/cluster/

echo "== differential sim<->mcheck harness"
go test -short -run 'TestDifferentialSimMcheck|TestDifferentialHarnessDetectsSeededBug' ./internal/ptest/

echo "== online coherence checker vs full sweep (journal misses no changed block)"
go test -run 'TestOnlineCheckerMatchesFullSweep|TestJournalRecordsEveryWrite' ./internal/coherence/

echo "== table-vs-method differential (compiled tables against the method oracle)"
go test -run 'TestTableVsMethod' ./internal/ptest/

echo "== transition-table freshness gate (goldens vs compiled tables, refusals, panic text, compile allocations)"
go test -run 'TestTransitionGoldens|TestCompileRefusals|TestCompletePanicText|TestCompileAllocBudget' ./internal/protocol/

echo "== fuzz targets (seed-corpus mode: f.Add seeds + testdata/fuzz)"
go test -run 'FuzzTraceBinaryRoundTrip|FuzzTraceTextDecode' ./internal/trace/
go test -run 'FuzzWorkloadReplay' ./internal/workload/
go test -run 'FuzzRunFileDecode|FuzzShardAbsorb' ./internal/mcheck/
go test -run 'FuzzSimulateRequest|FuzzSweepRequest|FuzzCheckRequest' ./internal/serve/

echo "== workload digest golden (13 protocols x 11 generator configs) + blocking-adapter differential"
go test -run 'TestProgramDigestsGolden|TestDirectMatchesShim|TestBuildMatchesProgramsOnTwoTier' ./internal/workload/
go test -run 'TestWorkloadsMatchPrograms' ./internal/trace/

echo "== steady-state allocation gate (0 allocs/op in the sim hot loop)"
go test -run 'TestSimSteadyStateAllocs' .

echo "== baseline-counts golden (BENCH_sim, BENCH_aquarius and BENCH_mcheck counts, exact)"
go test -run 'TestBaselineCounts' .

echo "== wall-clock check (spill run at least 0.5x its in-RAM sibling's states/s)"
go test -run '^$' -bench 'BenchmarkSpillVsRAM' -benchtime 1x .

echo "== mcheck kill-and-resume smoke + deep-check gate"
mctmp=$(mktemp -d)
go build -o "$mctmp/mcheck" ./cmd/mcheck

# SIGKILL a checkpointing run mid-exploration; the resumed run's -out
# summary must be byte-identical to an uninterrupted run's.
mcargs="-protocol bitar -procs 3 -blocks 2 -words 2 -depth 6 -workers 2 -mem-budget 6291456 -nospeedup -json"
"$mctmp/mcheck" $mcargs -out "$mctmp/full.json" >/dev/null
"$mctmp/mcheck" $mcargs -checkpoint "$mctmp/ck" -out "$mctmp/resumed.json" >/dev/null 2>&1 &
mcpid=$!
i=0
while [ ! -f "$mctmp/ck/MANIFEST.json" ] && [ "$i" -lt 200 ]; do
	sleep 0.05
	i=$((i + 1))
done
kill -9 "$mcpid" 2>/dev/null || true
wait "$mcpid" 2>/dev/null || true
"$mctmp/mcheck" $mcargs -checkpoint "$mctmp/ck" -resume -out "$mctmp/resumed.json" >/dev/null
cmp "$mctmp/full.json" "$mctmp/resumed.json"
echo "mcheck: resumed run byte-identical after SIGKILL"
rm -rf "$mctmp"

# The pinned disk-backed exhaustive check: bitar at p=4 (symmetry +
# POR) under a 256 KiB visited-set budget. Verdict, states, and
# transitions must reproduce DEEP_mcheck.json byte for byte.
go test -run 'TestDeepCheckGolden' .
echo "mcheck: bitar p4 exhaustive (disk-backed) matches pinned DEEP_mcheck.json"

echo "== cachesyncd smoke (start, /healthz, simulate, check, pprof, graceful stop)"
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/cachesyncd" ./cmd/cachesyncd
go build -o "$smoketmp/loadgen" ./cmd/loadgen
"$smoketmp/cachesyncd" -addr 127.0.0.1:0 -portfile "$smoketmp/port" -pprof >"$smoketmp/daemon.log" 2>&1 &
dpid=$!
if ! "$smoketmp/loadgen" -portfile "$smoketmp/port" -smoke -expect-pprof; then
	echo "cachesyncd smoke failed; daemon log:" >&2
	cat "$smoketmp/daemon.log" >&2
	kill "$dpid" 2>/dev/null || true
	exit 1
fi
kill -TERM "$dpid"
if ! wait "$dpid"; then
	echo "cachesyncd did not exit cleanly on SIGTERM; daemon log:" >&2
	cat "$smoketmp/daemon.log" >&2
	exit 1
fi
echo "cachesyncd: clean start/probe/drain/stop"

echo "== serving load run (open-loop SLO, 0.3x rate floor, 1 s median ceiling, X-Cache on every 2xx, overload shedding)"
"$smoketmp/loadgen" -selfhost -workers 2 -queue 8 -rate 25 -duration 2s -require-shed

echo "== cluster load run (3-replica fleet, artifact exchange, chaos kill, 0.3x rate floor, 1 s median ceiling, X-Cache on every 2xx)"
go build -o "$smoketmp/cachesyncc" ./cmd/cachesyncc
fleet="$smoketmp/fleet"
"$smoketmp/cachesyncc" -replicas 3 -workers 1 -queue 16 -dir "$fleet" \
	-addr 127.0.0.1:0 -portfile "$smoketmp/ccport" >"$smoketmp/cc.log" 2>&1 &
cpid=$!
if ! "$smoketmp/loadgen" -portfile "$smoketmp/ccport" -rate 60 -duration 2s \
	-warmup 500ms -overload=false \
	-chaos-kill "$fleet/r1.pid" -chaos-at 500ms -chaos-recover; then
	echo "cluster load run failed; coordinator log:" >&2
	cat "$smoketmp/cc.log" >&2
	kill "$cpid" 2>/dev/null || true
	exit 1
fi
kill -TERM "$cpid"
if ! wait "$cpid"; then
	echo "cachesyncc did not exit cleanly on SIGTERM; log:" >&2
	cat "$smoketmp/cc.log" >&2
	exit 1
fi
echo "cachesyncc: fleet served through a replica kill, respawn, and re-admission"

echo "verify: OK"
