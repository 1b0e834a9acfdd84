#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — the Go build cache, the binary, scratch corpora,
# result files — goes under .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$here" -buildvcs=false -o "$build/benchmark" .

# The commit the results belong to, when the checkout knows it.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
if [ -n "$commit" ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  commit="$commit+dirty"
fi
export SCT_BENCH_COMMIT="$commit"

cd "$root"
exec "$build/benchmark" "$@"
