#!/usr/bin/env bash
# Compares two revisions end to end with alternating pairs of perfbench
# runs and prints one JSON document: per metric, both sides' medians and
# interquartile ranges, the ratio of the medians and the pairs the head
# revision won (scripts/abpairs/main.go).
#
#   scripts/abpairs.sh BASE HEAD --workload W --pairs N
#
# BASE and HEAD are any git revisions of this repository. Each is exported
# (git archive) into its own directory under a new temporary directory,
# and perfbench/run.sh builds and runs it there, so neither the working
# tree nor the repository's metadata changes. Pair i runs both sides with
# seed i, the base first in odd pairs and the head first in even ones, so
# drift on a shared host falls on both sides alike. Each run measures
# BENCHMARK.json's run_seconds. Progress, and the temporary directory's
# path, go to standard error; the runs' result lines stay in its runs.tsv.
set -euo pipefail

usage() {
	echo "usage: $0 BASE HEAD --workload W --pairs N" >&2
	exit 2
}

[ $# -ge 2 ] || usage
base=$1 head=$2
shift 2
workload='' pairs=''
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=${2:-} ;;
	--pairs) pairs=${2:-} ;;
	*) usage ;;
	esac
	[ $# -ge 2 ] || usage
	shift 2
done
[ -n "$workload" ] || usage
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

repo=$(git rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$repo/BENCHMARK.json")
[ -n "$seconds" ] || { echo "abpairs: no run_seconds in $repo/BENCHMARK.json" >&2; exit 1; }
dir=$(mktemp -d)
echo "abpairs: runs go to $dir" >&2

for side in base head; do
	rev=$base
	[ "$side" = head ] && rev=$head
	sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
	echo "abpairs: $side is $rev ($sha), exported to $dir/$side" >&2
	mkdir "$dir/$side"
	git -C "$repo" archive "$sha" | tar -x -C "$dir/$side"
done

runs=$dir/runs.tsv
: >"$runs"
for ((i = 1; i <= pairs; i++)); do
	order="base head"
	[ $((i % 2)) -eq 0 ] && order="head base"
	for side in $order; do
		echo "abpairs: pair $i/$pairs, $side, seed $i" >&2
		line=$(cd "$dir/$side" && bash perfbench/run.sh --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '%s\t%d\t%s\n' "$side" "$i" "$line" >>"$runs"
	done
done

cd "$repo"
go run ./scripts/abpairs -base "$base" -head "$head" -workload "$workload" <"$runs"
