GO ?= go

.PHONY: all build test race bench gobench bench-check bench-pairs digests digests-diff fuzz check fmt vet docs-check cover

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel sweep engine makes this routine: the full suite under the
# race detector, including the worker-pool tests.
race:
	$(GO) test -race ./...

# The perf-trajectory artifact: run the full deterministic benchmark suite
# (streaming decode, drain-and-stitch capture, multi-seed sweep, proday
# end to end, fleet ingest, live serving tier) and write the next
# BENCH_N.json — one past the newest committed artifact, found with the
# same numeric sort scripts/bench_check.sh uses to pick the gate's
# baseline, so a run never overwrites a committed artifact.
bench:
	@last=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 | sed 's/[^0-9]//g'); \
	out=BENCH_$$(( $${last:-0} + 1 )).json; \
	echo "bench: writing $$out"; \
	$(GO) run ./cmd/kprof -bench $$out

# Regression gate: quick benchmark run compared against the newest
# committed BENCH_*.json (>15 % slower or more allocs per record fails).
bench-check:
	./scripts/bench_check.sh

# Output identity across checkouts: the SHA-256 of every output each
# BENCHMARK.json workload writes, at SEED (default 3). Diff the lines
# against the parent commit's before claiming byte-identical outputs.
SEED ?= 3
digests:
	./scripts/output_digests.sh $(SEED)

# The same digests at REV (say, the parent commit) and in this checkout,
# side by side: make digests-diff REV=HEAD~1 [SEED=N]. Exits non-zero if
# any workload's digests differ or any repeat failed.
digests-diff:
	./scripts/output_digests.sh --against $(REV) $(SEED)

# The benchmark in alternating pairs, REV against this checkout:
# make bench-pairs REV=HEAD~1 [PAIRS=10] [SEED=3] [WORKLOADS="..."]. Pair i
# runs seed SEED+i on both sides. Prints quartiles and a verdict per
# workload and end-to-end metric; exits non-zero on a worse verdict or a
# failed run.
PAIRS ?= 10
bench-pairs:
	./scripts/bench_pairs.sh --against $(REV) -n $(PAIRS) --seed $(SEED) $(WORKLOADS)

# The conventional go-test microbenchmarks (exporters, decode internals).
gobench:
	$(GO) test -bench=. -benchmem

# Short fuzz passes over the decoder's timestamp unwrap, the
# segment-boundary stitching state, and the hardened (fault-surviving)
# decode pipeline.
fuzz:
	$(GO) test -run FuzzDecodeUnwrap -fuzz FuzzDecodeUnwrap -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzSegmentBoundary -fuzz FuzzSegmentBoundary -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzFaultedDecode -fuzz FuzzFaultedDecode -fuzztime 20s ./internal/analyze/

# Statement-coverage floors for the packages the fault-injection claims
# rest on (internal/analyze, internal/faults).
cover:
	./scripts/cover_check.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation consistency: every exported identifier in kprof.go has a
# doc comment, every relative markdown link resolves, and every kprof CLI
# flag is covered in README.md.
docs-check:
	./scripts/godoc_check.sh
	./scripts/docs_check.sh

# Everything tier-1 verification should cover: formatting, vet, build,
# tests, and the race detector.
check:
	./scripts/check.sh
