#!/bin/sh
# bench-ab.sh BASE [WORKLOAD] [PAIRS] [SEED]
#
# The house rule for a performance claim (ROADMAP.md, "Open items"), run
# instead of by hand: build ./bench at BASE and at the working tree once
# each, run PAIRS alternating pairs of `-workload WORKLOAD -seconds 15`
# (which side goes first flips every pair), and print for every
# end-to-end metric each side's median [IQR], in how many pairs the
# working tree won, and the verdict:
#
#   gain   the working tree wins at least 9 pairs in 10 (ties count for
#          neither side) and the medians are further apart than the
#          distance between BASE's own quartiles;
#   loss   the same, with the sides swapped;
#   -      neither.
#
# A run whose result line does not start {"correct":true stops the
# comparison: a digest, leak or conservation check failed. Repeat with
# SEED 7 (the held-out seed) before claiming anything.
#
# BASE is exported with `git archive` into a temporary directory, so the
# repository's own worktree list and index are left alone; everything
# built or recorded is deleted on exit.
set -eu

base=${1:?usage: bench-ab.sh BASE [WORKLOAD] [PAIRS] [SEED]}
workload=${2:-replay-baseline}
pairs=${3:-10}
seed=${4:-42}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench)
(cd "$root" && go build -o "$tmp/bench-head" ./bench)

# run SIDE: one measured run, its result line appended to $tmp/SIDE.jsonl.
run() {
	line=$("$tmp/bench-$1" -workload "$workload" -seconds 15 -seed "$seed" | tail -n 1)
	case "$line" in
	'{"correct":true,'*) printf '%s\n' "$line" >>"$tmp/$1.jsonl" ;;
	*)
		echo "bench-ab: $1 run failed its checks: $line" | cut -c1-400 >&2
		exit 1
		;;
	esac
}

echo "bench-ab: $workload, seed $seed, $pairs pairs, base $(git -C "$root" rev-parse --short "$base")"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base
		run head
	else
		run head
		run base
	fi
	echo "bench-ab: pair $i/$pairs done" >&2
	i=$((i + 1))
done

awk -v pairs="$pairs" '
function value(line, name,    re, s) {
	re = "\"" name "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return "nan"
	s = substr(line, RSTART, RLENGTH)
	sub(/^.*:/, "", s)
	return s + 0
}
function sort(a, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
		a[j + 1] = v
	}
}
# quantile of sorted a[1..n] by linear interpolation
function quantile(a, n, q,    pos, lo, frac) {
	pos = 1 + (n - 1) * q
	lo = int(pos)
	frac = pos - lo
	if (lo >= n) return a[n]
	return a[lo] + frac * (a[lo + 1] - a[lo])
}
BEGIN {
	nm = split("inv_per_s overhead_ms allocs_per_inv peak_rss_mb setup_s", metric, " ")
	higher["inv_per_s"] = 1
}
FNR == 1 { side++ }
{
	for (m = 1; m <= nm; m++) v[side, metric[m], FNR] = value($0, metric[m])
}
END {
	printf "%-15s %28s %28s %7s %6s  %s\n", "metric", "base median [IQR]", "head median [IQR]", "ratio", "wins", "verdict"
	for (m = 1; m <= nm; m++) {
		name = metric[m]
		wins = losses = 0
		for (i = 1; i <= pairs; i++) {
			b[i] = v[1, name, i]; h[i] = v[2, name, i]
			better = (name in higher) ? h[i] > b[i] : h[i] < b[i]
			worse = (name in higher) ? h[i] < b[i] : h[i] > b[i]
			wins += better; losses += worse
		}
		sort(b, pairs); sort(h, pairs)
		bm = quantile(b, pairs, 0.5); hm = quantile(h, pairs, 0.5)
		biqr = quantile(b, pairs, 0.75) - quantile(b, pairs, 0.25)
		hiqr = quantile(h, pairs, 0.75) - quantile(h, pairs, 0.25)
		gap = hm - bm; if (gap < 0) gap = -gap
		headBetter = (name in higher) ? hm > bm : hm < bm
		verdict = "-"
		if (wins * 10 >= pairs * 9 && headBetter && gap > biqr) verdict = "gain"
		if (losses * 10 >= pairs * 9 && !headBetter && gap > hiqr) verdict = "loss"
		printf "%-15s %14.6g [%11.4g] %14.6g [%11.4g] %7.3f %3d/%-2d  %s\n", name, bm, biqr, hm, hiqr, (bm != 0 ? hm / bm : 0), wins, pairs, verdict
	}
	if (pairs < 10) print "fewer than 10 pairs: the verdicts are indicative only"
}' "$tmp/base.jsonl" "$tmp/head.jsonl"
