#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, doc
# consistency (public-surface godoc, markdown links, CLI flag coverage),
# build, tests, and (unless SKIP_RACE=1) the full suite under the race
# detector. CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== docs =="
./scripts/godoc_check.sh
./scripts/docs_check.sh

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== kbench module: vet + test =="
# kbench is a module of its own (kprof/kbench, replace kprof => ../), so
# the root go build, go vet and go test above skip it. It compiles against
# the package APIs it drives; without this leg a change to one of them
# would pass this gate and still break the benchmark's build.
(cd kbench && go vet ./... && go test ./...)

echo "== long-scenario drain golden =="
go test -run 'TestGoldenNetReceiveLongDrain|TestGoldenProdayDrain' .

echo "== pprof export read back by go tool pprof and gzip =="
# The -pprof file's real consumers read it: `go tool pprof` (part of the
# toolchain) must parse each drained capture's profile and print its
# samples, and gzip, where installed, must accept the container.
pprof_tmp=$(mktemp -d)
trap 'rm -rf "$pprof_tmp"' EXIT
go build -o "$pprof_tmp/kprof" ./cmd/kprof
for sc in netrecv-long proday; do
	f=$pprof_tmp/$sc.pb.gz
	"$pprof_tmp/kprof" -scenario $sc -drain -duration 1s -pprof "$f" >/dev/null
	if ! raw=$(go tool pprof -raw "$f" 2>&1); then
		echo "go tool pprof -raw failed on the $sc profile:"
		echo "$raw"
		exit 1
	fi
	case $raw in
	*"Samples:"*) ;;
	*)
		echo "go tool pprof -raw printed no Samples: block for the $sc profile:"
		echo "$raw"
		exit 1
		;;
	esac
	if command -v gzip >/dev/null 2>&1; then
		gzip -t "$f"
	fi
done

echo "== background drain decoder under the race detector =="
# A continuous session decodes its drained segments on a background
# goroutine: a recycling one hands readout buffers back and forth with the
# drain loop, and any other shares the retained records with the decoder
# and finishes its analysis at Disarm. The differential tests (clean and
# glitched drains, recycled and retained, streamed against a serial
# Stitch, mid-run analysis), the decoder join and the allocation ceiling
# must hold with the race detector watching those hand-offs; the streamed
# tests repeat under one, two and four procs. The mid-run test observes
# once right after the first drain, before the batch channel orders the
# decoder's work before the caller, so it holds the decoder to reading
# only what the session built before starting it (the tag file's table).
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestRecycle|TestGlitchedDrain|TestDrainZeroAlloc' \
		./internal/core/ ./internal/bench/
	for procs in 1 2 4; do
		GOMAXPROCS=$procs go test -race -count=10 \
			-run 'TestStreamedAnalyze|TestMidRunAnalyzePipelineEquivalence' \
			./internal/core/
	done
fi

echo "== fleet determinism + restart + join (GOMAXPROCS 1/2/4) =="
# The fleet report must be byte-identical for any staging bound and
# ingest interleaving, a projection loop stopped and started again must
# resume from the checkpoints to the same bytes, and a fleet run must
# join every goroutine it starts. Run the differentials and the join test
# under one, two and four procs, and under the race detector (unless
# skipped) to cover the ingest/projection concurrency itself.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 \
		-run 'TestFleetDeterminism|TestFleetRestart|TestFleetJoinsGoroutines' \
		./internal/fleet/
done
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestFleet|TestStatusServerFleet' \
		./internal/fleet/ ./internal/export/
fi

echo "== serving tier: multi-client concurrency battery =="
# The SSE hub, ETag cache and time-series ring serve many clients off the
# capture path; their battery (100-subscriber churn, slow-client
# eviction, cache coherence under mutation, the multi-client live-session
# hammer, and a published analysis building its trace once under
# concurrent first use) must hold under the race detector. So must the
# wire golden (TestServingWireGolden: every served body and hub event of
# a faulted session, a sweep and a fleet run driving every hook, the
# fleet's ingest and window goroutines included) and the freshness test
# (TestServingStatusFreshAfterPublish: every hook that publishes moves
# the /status.json ETag).
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestSSE|TestHub|TestETag|TestSubscribe|TestServing|TestCacheCoherence|TestTimeseries|TestLazyTrace' \
		./internal/export/
fi

echo "== optimize-verify loop =="
# The profile-guided loop must close on a real seed: every registry
# change's measured per-unit delta agrees in sign with its what-if
# estimate and lands within the declared tolerance, the differential
# report reproduces byte for byte, and the budget optimizer stays exact
# against brute force. The loop-sweep determinism test additionally runs
# the whole loop across seeds on 1 and 3 workers and on GOMAXPROCS
# (parallel 0), and demands identical bytes.
go test -count=1 \
	-run 'TestRunLoopVerifiesRegistry|TestRunLoopSweepDeterministicAcrossWorkers|TestOptimizeMatchesBruteForce' \
	./internal/pgo/
go test -count=1 -run 'TestGoldenPGO' .

echo "== fuzz smoke =="
# The capture reader faces saved files from disk: its corpus replays here,
# including a header that claims 2^32-1 records, and it is fuzzed beside
# the segment-boundary decoder. The two capture-path shortcuts are held to
# the paths they replace: Advance's quiet path against the full event and
# interrupt scan, the single-copy readout against the per-byte readout.
# The drain decoder's batch path, which reuses one event per
# reconstructor, is held to the record-at-a-time path on netrecv and
# proday streams. Those two fuzzers find new inputs within seconds, and
# minimizing each one unbounded would take the whole run, so it is capped.
go test -run 'FuzzDecodeUnwrap|FuzzSegmentBoundary|FuzzFaultedDecode|FuzzProdayDecode' ./internal/analyze/
go test -run 'FuzzReadArtifact' ./internal/bench/
go test -run 'FuzzReadCapture|FuzzReadoutCopy' ./internal/hw/
go test -run 'FuzzAdvanceQuiet' ./internal/kernel/
if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	go test -run FuzzSegmentBoundary -fuzz FuzzSegmentBoundary -fuzztime 10s ./internal/analyze/
	go test -run FuzzFaultedDecode -fuzz FuzzFaultedDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/analyze/
	go test -run FuzzProdayDecode -fuzz FuzzProdayDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/analyze/
	go test -run FuzzReadCapture -fuzz FuzzReadCapture -fuzztime 10s ./internal/hw/
	go test -run FuzzReadoutCopy -fuzz FuzzReadoutCopy -fuzztime 10s ./internal/hw/
	go test -run FuzzAdvanceQuiet -fuzz FuzzAdvanceQuiet -fuzztime 10s ./internal/kernel/
fi

echo "== coverage floors =="
./scripts/cover_check.sh

if [ "${SKIP_BENCH:-0}" != "1" ]; then
	echo "== benchmark regression gate =="
	./scripts/bench_check.sh
fi

if [ "${SKIP_RACE:-0}" != "1" ]; then
	echo "== go test -race =="
	go test -race ./...
fi

echo "check: all clean"
