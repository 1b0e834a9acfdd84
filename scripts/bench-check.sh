#!/usr/bin/env bash
# make bench-check: hold the working tree against a base revision on the
# repo's benchmark (BENCHMARK.json, benchmark/README.md).
#
# The base revision is unpacked with git archive under .bench_build/check/,
# the four workloads are run PAIRS times on each side — alternating which
# side runs first, so a slow spell of the host lands on both — and the two
# result sets go through the ledger's own -compare. The exit status is
# non-zero when a metric REGRESSED, an exact count drifted or an operation
# failed. Two settings, from the environment:
#
#   BASE   revision to compare against (default HEAD~1)
#   PAIRS  runs of each workload per side (default 3)
#
# Other seeds, a single workload or a traced pass go through
# benchmark/run.sh directly.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev="${BASE:-HEAD~1}"
pairs="${PAIRS:-3}"

check="$root/.bench_build/check"
rm -rf "$check"
mkdir -p "$check/base" "$check/results/base" "$check/results/head"
git -C "$root" archive "$base_rev" | tar -x -C "$check/base"

declare -A checkout=([base]="$check/base" [head]="$root")
status=0

for ((i = 1; i <= pairs; i++)); do
  order=(base head)
  ((i % 2)) || order=(head base)
  for w in study_registry exhaustive_reduction swarm_corpus partition; do
    for side in "${order[@]}"; do
      echo "bench-check: pair $i/$pairs  $side  $w" >&2
      bash "${checkout[$side]}/benchmark/run.sh" --workload "$w" --seed 1 --trace 0 \
        -out "$check/results/$side/$w-$i.json" >/dev/null || status=1
    done
  done
done

echo "bench-check: $base_rev ($(git -C "$root" rev-parse --short "$base_rev")) -> working tree, $pairs pair(s)"
bash "$root/benchmark/run.sh" -compare "$check/results/base" "$check/results/head" || status=1
exit "$status"
