#!/bin/sh
# output_digests.sh — print the SHA-256 digest of every output the
# benchmark's workloads write (summary, pprof, fleet report and JSON), one
# line per workload of BENCHMARK.json, for one seed:
#
#   ./scripts/output_digests.sh [seed]     (default seed 3; make digests)
#
# Run it in two checkouts and diff the output: a change that keeps every
# output byte prints the same lines as its parent. Each workload runs one
# repeat of the benchmark (kbench -repeat plain) in a fresh process; a
# repeat that reports failed operations makes the script exit 1.
set -eu

cd "$(dirname "$0")/.."
seed=${1:-3}

# The workload entries are the BENCHMARK.json objects carrying a "why".
workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ]; then
	echo "output_digests: no workloads found in BENCHMARK.json" >&2
	exit 1
fi

# A lone repeat writes its exported files here (kbench's default -out).
mkdir -p .bench_build/kbench-out

status=0
for w in $workloads; do
	line=$(bash kbench/run.sh --workload "$w" --seed "$seed" --repeat plain)
	digests=$(printf '%s\n' "$line" | sed -n 's/.*"digests":\({[^}]*}\).*/\1/p')
	failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$digests" ]; then
		echo "output_digests: $w printed no digests" >&2
		exit 1
	fi
	if [ "${failed:-0}" != "0" ]; then
		echo "output_digests: $w seed $seed: $failed failed operations" >&2
		status=1
	fi
	echo "$w seed $seed $digests"
done
exit $status
