#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark (perfbench) between a base ref and
# the working tree:
#   bash scripts/perfab.sh <base-ref> <workload> <seed> <pairs>
# e.g. bash scripts/perfab.sh HEAD~1 ilp4 1 10
#
# Run from the repository root. It exports <base-ref> with git archive and
# copies the working tree (tracked and untracked files git does not ignore),
# so editing files while it runs changes neither side, and it leaves no
# worktree registered in the repository. Each side runs its own
# perfbench/run.sh with its own build directory, so both get run.sh's
# environment and perfbench's own run length. Pair i runs the change first when i is odd and the base first
# when it is even. Each run logs its CPU steal, read from /proc/stat around
# it. Everything goes under $PERFAB_DIR (default .perfab/<workload>-seed<seed>).
#
# At the end it prints, for every end-to-end metric of BENCHMARK.json that the
# runs report: each side's median and quartiles, how many pairs the change
# won, whether the claim rule holds (at least ten pairs, wins in at least 9
# of 10, and the medians further apart than the base's interquartile range),
# and the change's standing against the metric's regression bound: WORSE when
# its median is worse than the base's by more than the bound, else unresolved
# when the base's interquartile range exceeds the bound and not every change
# run beats every base run, else within.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: bash scripts/perfab.sh <base-ref> <workload> <seed> <pairs>" >&2
	exit 2
fi
ref=$1 workload=$2 seed=$3 pairs=$4
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/perfbench/run.sh" ]; then
	echo "perfab: run from the repository root" >&2
	exit 2
fi
dir=${PERFAB_DIR:-.perfab/$workload-seed$seed}
case $dir in
/*) ;;
*) dir=$root/$dir ;;
esac
rm -rf "$dir/base/src" "$dir/change/src"
mkdir -p "$dir/base/src" "$dir/change/src"

git -C "$root" archive "$ref" | tar -x -C "$dir/base/src"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	tar -c --null --no-recursion --ignore-failed-read -T - -f -) | tar -x -C "$dir/change/src"

# steal prints the steal and total jiffies of the host so far.
# Fields 2-9 of its cpu line are user, nice, system, idle, iowait, irq,
# softirq and steal.
steal() { awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat; }

log=$dir/runs.tsv
printf 'pair\tside\torder\tsteal_frac\tresult\n' >"$log"
run() { # run <pair> <side> <order>
	local s0 s1 out
	s0=$(steal)
	out=$(cd "$dir/$2/src" && CARGO_TARGET_DIR="$dir/$2/build" bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --trace 0 | tail -n 1) || true
	s1=$(steal)
	local frac
	frac=$(echo "$s0 $s1" | awk '{ d = $4 - $2; printf "%.4f", (d > 0 ? ($3 - $1) / d : 0) }')
	printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$frac" "$out" >>"$log"
	echo "pair $1 $2 (run $3): steal $frac" >&2
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$i" change 1
		run "$i" base 2
	else
		run "$i" base 1
		run "$i" change 2
	fi
done

# Each result is perfbench's last line: {"correct":..,"attempted":..,
# "failed":..,"metrics":{"<name>":{"value":<v>,"unit":".."},..}}.
awk -F'\t' -v manifest="$root/BENCHMARK.json" -v ref="$ref" -v workload="$workload" -v seed="$seed" '
function num(s, key,   i, r) {
	i = index(s, "\"" key "\":")
	if (i == 0) return ""
	r = substr(s, i + length(key) + 3)
	sub(/[,}].*/, "", r)
	return r
}
function metric(s, name,   i, r) {
	i = index(s, "\"" name "\":{\"value\":")
	if (i == 0) return ""
	r = substr(s, i + length(name) + 12)
	sub(/[,}].*/, "", r)
	return r
}
function quantile(a, n, p,   h, lo) { # a[1..n] sorted; linear interpolation
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sortn(a, n,   i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
		a[j + 1] = v
	}
}
BEGIN {
	# The end-to-end metrics, their direction and bound, in manifest order.
	while ((getline line < manifest) > 0) {
		if (line ~ /"end_to_end"/) inE2E = 1
		else if (line ~ /"per_layer"/) inE2E = 0
		if (!inE2E) continue
		if (line ~ /"name"/) { name = line; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); names[++nm] = name }
		if (line ~ /"better"/) { b = line; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b }
		if (line ~ /"bound"/) { b = line; sub(/.*"bound": *"?/, "", b); sub(/[",].*/, "", b); bound[name] = b + 0 }
	}
}
NR == 1 { next }
{
	p = $1; side = $2; res = $5
	if (num(res, "correct") != "true" || num(res, "failed") != "0") bad[side]++
	steals[side] = steals[side] " " $4
	for (k = 1; k <= nm; k++) {
		v = metric(res, names[k])
		if (v == "") continue
		seen[names[k]] = 1
		val[names[k], side, p] = v + 0
		has[names[k], side, p] = 1
	}
	if (p > np) np = p
}
END {
	printf "perfab: %s vs working tree, %s seed %s, %d pairs\n", ref, workload, seed, np
	printf "runs not correct or with failures: base %d, change %d\n", bad["base"] + 0, bad["change"] + 0
	printf "steal per run: base%s; change%s\n", steals["base"], steals["change"]
	printf "%-20s %-8s %-30s %-30s %7s %6s %-6s %s\n", "metric", "better", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "claim", "bound"
	for (k = 1; k <= nm; k++) {
		m = names[k]
		if (!(m in seen)) continue
		nb = nc = wins = ties = n = 0
		delete bv; delete cv
		for (p = 1; p <= np; p++) {
			if (!has[m, "base", p] || !has[m, "change", p]) continue
			n++
			x = val[m, "base", p]; y = val[m, "change", p]
			bv[++nb] = x; cv[++nc] = y
			if (x == y) ties++
			else if ((better[m] == "higher") == (y > x)) wins++
		}
		if (n == 0) continue
		sortn(bv, nb); sortn(cv, nc)
		bmed = quantile(bv, nb, 0.5); cmed = quantile(cv, nc, 0.5)
		bq1 = quantile(bv, nb, 0.25); bq3 = quantile(bv, nb, 0.75)
		cq1 = quantile(cv, nc, 0.25); cq3 = quantile(cv, nc, 0.75)
		gain = better[m] == "higher" ? cmed - bmed : bmed - cmed
		if (n < 10) claim = "n<10"
		else claim = (wins * 10 >= 9 * n && gain > bq3 - bq1) ? "holds" : "no"
		# apart: every change run beats every base run.
		apart = better[m] == "higher" ? cv[1] > bv[nb] : cv[nc] < bv[1]
		worse = bmed != 0 ? -gain / bmed : 0
		if (worse > bound[m]) verdict = "WORSE"
		else if (bmed != 0 && (bq3 - bq1) / bmed > bound[m] && !apart) verdict = "unresolved"
		else verdict = "within"
		printf "%-20s %-8s %-30s %-30s %7.3f %3d/%-2d %-6s %s %.2f\n", m, better[m],
			sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3), sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
			(bmed != 0 ? cmed / bmed : 0), wins, n, claim, verdict, bound[m]
	}
}' "$log"
