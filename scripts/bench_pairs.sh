#!/bin/sh
# bench_pairs.sh — the benchmark in alternating pairs: REV against this
# checkout, per BENCHMARK.json workload, with a verdict per end-to-end
# metric.
#
#   ./scripts/bench_pairs.sh --against REV [-n 10] [--seed FIRST]
#       [--trace 0|1] [workload ...]
#   make bench-pairs REV=... [PAIRS=10] [SEED=3] [WORKLOADS="..."]
#
# The script unpacks `git archive REV` into a temporary directory (under
# $TMPDIR) and builds the kbench binary there and in the checkout, each
# into its own .bench_build/ exactly as kbench/run.sh does. Pair i (from 0)
# runs seed FIRST+i on both sides for BENCHMARK.json's run_seconds, REV
# first in even pairs and the checkout first in odd ones, so a drift in
# host speed falls on both sides alike. Without workload arguments every
# BENCHMARK.json workload runs.
#
# For every workload and metric it prints REV's and the checkout's
# q1/median/q3, the change in the median, the pairs in which the checkout
# was better, REV's interquartile range as a share of its median, the
# metric's bound, and a verdict:
#
#   worse       the median moved the wrong way by more than the bound
#   unresolved  REV's spread is wider than the bound, so it cannot tell
#               (unless every checkout run beat every REV run)
#   improved    better in at least 9 pairs of 10, and the medians differ
#               by more than REV's interquartile range
#   flat        none of these
#
# --trace 1 runs the traced benchmark and reports its per-layer metrics,
# which have no bound and get no verdict. The raw result lines (side,
# workload, seed, kbench's JSON) are kept under .bench_build/bench_pairs/.
# The script exits 1 on a `worse` verdict or when any run failed an
# operation, reported incorrect output or printed no result.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
	echo "usage: bench_pairs.sh --against REV [-n N] [--seed FIRST] [--trace 0|1] [workload ...]" >&2
	exit 2
}

rev= n=10 seed=3 trace=0
while [ $# -gt 0 ]; do
	case $1 in
	--against | -n | --seed | --trace)
		[ $# -ge 2 ] || usage
		case $1 in
		--against) rev=$2 ;;
		-n) n=$2 ;;
		--seed) seed=$2 ;;
		--trace) trace=$2 ;;
		esac
		shift 2
		;;
	-*) usage ;;
	*) break ;;
	esac
done
[ -n "$rev" ] || usage
for v in "$n" "$seed"; do
	case $v in '' | *[!0-9]*) usage ;; esac
done
[ "$n" -ge 1 ] || usage
case $trace in 0 | 1) ;; *) usage ;; esac

seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$*
if [ -z "$workloads" ]; then
	# The workload entries are the BENCHMARK.json objects carrying a "why".
	workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
fi
# name bound better, one line per end-to-end metric; per-layer metrics
# (traced runs) carry no bound.
if [ "$trace" = 1 ]; then
	specs=$(sed -n '/"per_layer"/,/\]/s/.*{"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 - \2/p' BENCHMARK.json)
else
	specs=$(sed -n '/"end_to_end"/,/\]/s/.*{"name": *"\([^"]*\)".*"better": *"\([a-z]*\)", *"bound": *\([0-9.]*\).*/\1 \3 \2/p' BENCHMARK.json)
fi
if [ -z "$seconds" ] || [ -z "$workloads" ] || [ -z "$specs" ]; then
	echo "bench_pairs: no run_seconds, workloads or metrics found in BENCHMARK.json" >&2
	exit 1
fi

short=$(git rev-parse --short "$rev")
tmp=$(mktemp -d)
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"

# build mirrors kbench/run.sh: the checkout's sources, its own build cache.
build() {
	out=$1/.bench_build
	mkdir -p "$out"
	(cd "$1/kbench" && GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0 go build -o "$out/kbench" .)
}
echo "bench_pairs: building kbench at $short and in the checkout" >&2
build "$tmp/src"
build "$root"

mkdir -p "$root/.bench_build/bench_pairs"
raw=$root/.bench_build/bench_pairs/$short-$(date +%Y%m%d-%H%M%S).txt
: >"$raw"

# one SIDE DIR WORKLOAD SEED appends the run's result line to $raw.
one() {
	line=$(cd "$2" && .bench_build/kbench --workload "$3" --seed "$4" \
		--seconds "$seconds" --trace "$trace" 2>/dev/null | grep '^{"correct"' || true)
	[ -n "$line" ] || line='{}'
	printf '%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$line" >>"$raw"
}

for w in $workloads; do
	i=0
	while [ "$i" -lt "$n" ]; do
		s=$((seed + i))
		echo "bench_pairs: $w pair $((i + 1))/$n seed $s" >&2
		if [ $((i % 2)) -eq 0 ]; then
			one parent "$tmp/src" "$w" "$s"
			one change "$root" "$w" "$s"
		else
			one change "$root" "$w" "$s"
			one parent "$tmp/src" "$w" "$s"
		fi
		i=$((i + 1))
	done
done

echo "bench_pairs: $n pairs per workload, seeds $seed..$((seed + n - 1)), --seconds $seconds --trace $trace"
echo "bench_pairs: parent = $short ($rev), change = the checkout; raw lines in ${raw#"$root"/}"
printf '%s\n' "$specs" | awk -v raw="$raw" '
function val(s, name,   p, t) {
	p = index(s, "\"" name "\":{\"value\":")
	if (p == 0)
		return ""
	t = substr(s, p + length(name) + 12)
	match(t, /^[-+0-9.eE]+/)
	return substr(t, 1, RLENGTH) + 0
}
# sorted copies src[1..m] into dst ascending (insertion sort; m is small).
function sorted(src, m, dst,   i, j, v) {
	for (i = 1; i <= m; i++) {
		v = src[i]
		for (j = i - 1; j >= 1 && dst[j] > v; j--)
			dst[j + 1] = dst[j]
		dst[j + 1] = v
	}
}
# quant is the q-quantile of a[1..m], interpolated between order statistics.
function quant(a, m, q,   pos, lo) {
	pos = (m - 1) * q + 1
	lo = int(pos)
	if (lo >= m)
		return a[m]
	return a[lo] + (a[lo + 1] - a[lo]) * (pos - lo)
}
{ nm++; mname[nm] = $1; mbound[nm] = $2; mbetter[nm] = $3 }
END {
	FS = "\t"
	while ((getline line < raw) > 0) {
		split(line, f, "\t")
		side = f[1]; w = f[2]; j = f[4]
		if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
		k = ++runs[side, w]
		if (j !~ /"correct":true/) {
			bad++
			printf "bench_pairs: %s %s seed %s: no correct result\n", side, w, f[3]
		}
		fl = j
		if (sub(/.*"failed":/, "", fl) && fl + 0 > 0) {
			failed += fl + 0
			printf "bench_pairs: %s %s seed %s: %d failed operations\n", side, w, f[3], fl + 0
		}
		for (i = 1; i <= nm; i++)
			x[side, w, i, k] = val(j, mname[i])
	}
	printf "%-14s %-36s %-30s %-30s %8s %6s %7s %6s  %s\n", "workload", "metric",
		"parent q1/median/q3", "change q1/median/q3", "d median", "better", "spread", "bound", "verdict"
	for (wi = 1; wi <= nw; wi++) {
		w = order[wi]
		for (i = 1; i <= nm; i++) {
			m = 0; wins = 0; nonzero = 0
			split("", p); split("", c); split("", ps); split("", cs)
			for (k = 1; k <= runs["parent", w] && k <= runs["change", w]; k++) {
				pv = x["parent", w, i, k]; cv = x["change", w, i, k]
				if (pv == "" || cv == "")
					continue
				m++; p[m] = pv; c[m] = cv
				if (pv != 0 || cv != 0)
					nonzero = 1
				if ((mbetter[i] == "higher" && cv > pv) || (mbetter[i] != "higher" && cv < pv))
					wins++
			}
			# A metric the workload does not measure reads 0 throughout.
			if (!nonzero)
				continue
			sorted(p, m, ps); sorted(c, m, cs)
			pq1 = quant(ps, m, 0.25); pmed = quant(ps, m, 0.5); pq3 = quant(ps, m, 0.75)
			cq1 = quant(cs, m, 0.25); cmed = quant(cs, m, 0.5); cq3 = quant(cs, m, 0.75)
			base = (pmed < 0) ? -pmed : pmed
			if (base == 0)
				base = 1
			d = (cmed - pmed) / base
			spread = (pq3 - pq1) / base
			gap = (mbetter[i] == "higher") ? cmed - pmed : pmed - cmed
			verdict = "-"
			if (mbound[i] != "-") {
				if (-gap / base > mbound[i] + 0) {
					verdict = "worse"; worse++
				} else if (spread > mbound[i] + 0 && !(mbetter[i] == "higher" ? cs[1] > ps[m] : cs[m] < ps[1])) {
					# A spread wider than the bound decides nothing,
					# unless every change run beat every parent run.
					verdict = "unresolved"
				} else if (wins * 10 >= 9 * m && gap > pq3 - pq1) {
					verdict = "improved"
				} else {
					verdict = "flat"
				}
			}
			printf "%-14s %-36s %-30s %-30s %+7.1f%% %3d/%-2d %6.1f%% %6s  %s\n", w, mname[i],
				sprintf("%.4g/%.4g/%.4g", pq1, pmed, pq3), sprintf("%.4g/%.4g/%.4g", cq1, cmed, cq3),
				100 * d, wins, m, 100 * spread, (mbound[i] == "-") ? "-" : sprintf("%g%%", 100 * mbound[i]), verdict
		}
	}
	exit (worse > 0 || bad > 0 || failed > 0) ? 1 : 0
}'
