#!/usr/bin/env bash
# Runs the benchmark alternately in two checkouts, one pair per seed,
# with the side that runs first alternating from pair to pair, and
# appends each side's output to its own log for `perfbench compare`.
# Both checkouts must hold the same perfbench/ and BENCHMARK.json.
#
# Usage: bash perfbench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS OUT_DIR
set -euo pipefail
if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS OUT_DIR" >&2
	exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) workload=$3 pairs=$4
mkdir -p "$5"
out=$(cd "$5" && pwd)
for ((seed = 1; seed <= pairs; seed++)); do
	order="parent change"
	if ((seed % 2 == 0)); then order="change parent"; fi
	for side in $order; do
		dir=$parent
		if [ "$side" = change ]; then dir=$change; fi
		(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed") >>"$out/$side.log"
	done
done
echo "compare with: bash perfbench/run.sh compare $out/parent.log $out/change.log"
