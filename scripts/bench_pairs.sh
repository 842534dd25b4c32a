#!/usr/bin/env bash
# Alternating-pairs comparison of one benchmark workload between a git ref
# and the working tree — the rule docs/PERF.md prescribes for any claim:
#
#   scripts/bench_pairs.sh <ref> <workload> [pairs=10] [seconds=10]
#
# The ref is extracted once (git archive) under .bench_build/pairs/<sha>;
# each pair runs `benchmark/run.sh --workload W --seed 1` on both sides,
# alternating which side goes first. Prints, for each of the four
# end-to-end metrics (query_p50_ms, queries_per_s, setup_s, peak_rss_mb),
# both series, their medians, how many pairs the tree won, and the ref's
# own quartile distance (the spread a gain has to clear). It calls the
# benchmark; it does not edit it.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <ref> <workload> [pairs=10] [seconds=10]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-10}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
refdir=$root/.bench_build/pairs/$sha
if [ ! -d "$refdir" ]; then
	mkdir -p "$refdir"
	git -C "$root" archive "$sha" | tar -x -C "$refdir"
fi

# run_side <dir>: one untraced run; prints the metrics in report order.
run_side() {
	local line
	line=$(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
	case $line in
	*'"correct":true'*'"failed":0'*) ;;
	*)
		echo "bench_pairs: run in $1 was not correct with 0 failed ops: $line" >&2
		exit 1
		;;
	esac
	local m out=
	for m in query_p50_ms queries_per_s setup_s peak_rss_mb; do
		out+="$(sed -n 's/.*"'"$m"'":{"unit":"[^"]*","value":\([-0-9.e+]*\)}.*/\1/p' <<<"$line") "
	done
	echo "$out"
}

ref_rows=() tree_rows=()
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		r=$(run_side "$refdir") t=$(run_side "$root")
	else
		t=$(run_side "$root") r=$(run_side "$refdir")
	fi
	ref_rows+=("$r") tree_rows+=("$t")
	echo "pair $((i + 1))/$pairs  ref: $r  tree: $t" >&2
done

# report <column> <name> <better: lower|higher>
report() {
	paste -d' ' <(printf '%s\n' "${ref_rows[@]}" | cut -d' ' -f"$1") <(printf '%s\n' "${tree_rows[@]}" | cut -d' ' -f"$1") |
		awk -v name="$2" -v better="$3" -v ref="$ref" -v wl="$workload" '
		function sorted(src, dst, n,    i, j, v) { # insertion sort: mawk has no asort
			for (i = 1; i <= n; i++) {
				v = src[i]
				for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
				dst[j + 1] = v
			}
		}
		function quantile(a, n, q,    pos, lo, frac) {
			pos = (n - 1) * q; lo = int(pos); frac = pos - lo
			return lo + 1 < n ? a[lo + 1] + frac * (a[lo + 2] - a[lo + 1]) : a[n]
		}
		{ r[NR] = $1 + 0; t[NR] = $2 + 0; rs = rs " " $1; ts = ts " " $2
		  if (better == "lower" ? $2 < $1 : $2 > $1) wins++
		  else if ($2 == $1) ties++ }
		END {
			n = NR; sorted(r, sr, n); sorted(t, st, n)
			rm = quantile(sr, n, 0.5); tm = quantile(st, n, 0.5)
			iqr = quantile(sr, n, 0.75) - quantile(sr, n, 0.25)
			printf "%s on %s (%s is better)\n  %-6s%s\n  tree  %s\n", name, wl, better, ref, rs, ts
			printf "  medians: %s %.4f, tree %.4f (%+.1f%%)\n", ref, rm, tm, 100 * (tm - rm) / rm
			printf "  tree wins %d of %d pairs (%d ties); %s quartile distance %.4f, medians apart by %.4f\n",
				wins, n, ties, ref, iqr, (tm > rm ? tm - rm : rm - tm)
		}'
}
report 1 query_p50_ms lower
report 2 queries_per_s higher
report 3 setup_s lower
report 4 peak_rss_mb lower
