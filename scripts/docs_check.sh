#!/bin/sh
# docs_check.sh — keep the prose honest:
#   1. every relative link in the repo's markdown files must resolve to an
#      existing file,
#   2. every kprof CLI flag defined in cmd/kprof/main.go must be mentioned
#      in README.md (so new flags cannot ship undocumented), and
#   3. every flag a README flag-table row names in its first cell must be
#      defined in cmd/kprof/main.go (so removed flags leave no stale row).
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== markdown relative links =="
for md in *.md; do
	# pull out ](target) link destinations, skip absolute/anchor links
	for l in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//'); do
		case $l in
		http://* | https://* | \#* | mailto:*) continue ;;
		esac
		target=${l%%#*}
		[ -z "$target" ] && continue
		if [ ! -e "$target" ]; then
			echo "$md: broken relative link: $l"
			fail=1
		fi
	done
done

echo "== kprof CLI flags documented in README =="
flags=$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z]+' cmd/kprof/main.go | sed 's/.*"//' | sort -u)
if [ -z "$flags" ]; then
	echo "docs_check: found no flags in cmd/kprof/main.go (parser broken?)"
	exit 1
fi
for f in $flags; do
	if ! grep -q -- "-$f" README.md; then
		echo "README.md: kprof flag -$f is not mentioned"
		fail=1
	fi
done

echo "== README flag rows name defined kprof flags =="
rows=$(grep -E '^\| `-' README.md | cut -d'|' -f2 | grep -oE '`-[a-z]+`' | sed 's/^`-//; s/`$//')
if [ -z "$rows" ]; then
	echo "docs_check: found no flag rows in README.md (parser broken?)"
	exit 1
fi
for r in $rows; do
	if ! echo "$flags" | grep -qx -- "$r"; then
		echo "README.md: flag row -$r names no flag in cmd/kprof/main.go"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "docs_check: failures above"
	exit 1
fi
echo "docs_check: links and CLI flag docs are consistent"
