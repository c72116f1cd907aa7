#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout; nothing is read from or written
# to the user's caches, and no module is downloaded (the only dependency is
# the repository itself, through the replace directive in bench/go.mod).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config" \
GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$here" -buildvcs=false -o "$build/cyclops-bench" .

exec "$build/cyclops-bench" "$@"
