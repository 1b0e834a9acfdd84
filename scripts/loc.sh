#!/usr/bin/env bash
# make loc: the size of the code, and what the working tree changes of it.
#
# Counts the lines of every Go file that is neither a test (_test.go) nor
# generated ("// Code generated" header), per package directory — the root
# package, each internal/* and cmd/* (examples/ with them); benchmark/, a
# module of its own that most PRs may not touch, is listed apart — at a base
# revision (unpacked with git archive) and in the working tree, with the
# difference per package and in total. These are the figures a CHANGES.md
# "Size:" line quotes. Informational: no thresholds. One setting:
#
#   scripts/loc.sh [REV]    revision to compare against (default HEAD~1)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="${1:-HEAD~1}"
base="$root/.bench_build/loc" # ignored by git, like everything benchmark/run.sh leaves there
rm -rf "$base"
mkdir -p "$base"
trap 'rm -rf "$base"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$base"

# count DIR: "<package> <lines>" for every package directory under DIR.
count() {
  (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './.*' -print0 |
    xargs -0 -r grep -L '^// Code generated' |
    while read -r f; do
      printf '%s %s\n' "$(dirname "${f#./}")" "$(wc -l <"$f")"
    done | awk '{ n[$1] += $2 } END { for (p in n) print p, n[p] }')
}

echo "non-test, non-generated Go lines: $rev ($(git -C "$root" rev-parse --short "$rev")) -> working tree"
join -a1 -a2 -e0 -o 0,1.2,2.2 <(count "$base" | sort) <(count "$root" | sort) |
  awk '
    function row(p, a, b) { printf "  %-28s %7d %7d %+7d\n", p, a, b, b - a }
    { bench = ($1 ~ /^benchmark(\/|$)/)
      if (bench) { apart[$1] = $2 " " $3 } else { row($1 == "." ? "(root)" : $1, $2, $3); a += $2; b += $3 } }
    END {
      row("total outside benchmark/", a, b)
      for (p in apart) { split(apart[p], v, " "); row(p, v[1], v[2]) }
    }'
