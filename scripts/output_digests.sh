#!/bin/sh
# output_digests.sh — print the SHA-256 digest of every output the
# benchmark's workloads write (summary, pprof, fleet report and JSON), one
# line per workload of BENCHMARK.json, for one seed:
#
#   ./scripts/output_digests.sh [seed]                (default seed 3; make digests)
#   ./scripts/output_digests.sh --against REV [seed]  (make digests-diff REV=...)
#
# A change that keeps every output byte prints the same lines as its
# parent. Each workload runs one repeat of the benchmark (kbench -repeat
# plain) in a fresh process; a repeat that reports failed operations makes
# the script exit 1.
#
# With --against, the script unpacks `git archive REV` into a temporary
# directory (under $TMPDIR), runs this copy of the script there and in the
# checkout, prints both digest sets, and exits 1 if any line differs. The
# temporary checkout builds its own benchmark binary (about 30 s the first
# time) and is removed on exit.
set -eu

script=$(cd "$(dirname "$0")" && pwd)/$(basename "$0")
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--against" ]; then
	if [ $# -lt 2 ]; then
		echo "usage: output_digests.sh --against REV [seed]" >&2
		exit 2
	fi
	rev=$2
	seed=${3:-3}
	tmp=$(mktemp -d)
	trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
	mkdir "$tmp/src"
	git archive "$rev" | tar -x -C "$tmp/src"
	# REV may predate this script: run the checkout's copy in both places.
	mkdir -p "$tmp/src/scripts"
	cp "$script" "$tmp/src/scripts/output_digests.sh"
	status=0
	sh "$tmp/src/scripts/output_digests.sh" "$seed" >"$tmp/rev.txt" || status=1
	sh "$script" "$seed" >"$tmp/checkout.txt" || status=1
	echo "== $rev"
	cat "$tmp/rev.txt"
	echo "== checkout"
	cat "$tmp/checkout.txt"
	if cmp -s "$tmp/rev.txt" "$tmp/checkout.txt"; then
		echo "output_digests: identical to $rev at seed $seed"
	else
		echo "output_digests: digests differ from $rev at seed $seed" >&2
		status=1
	fi
	exit $status
fi

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
