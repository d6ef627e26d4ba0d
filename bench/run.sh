#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build leaves behind (binary, Go build cache, Go's
# per-user state) lands in .bench_build/ at the root of the checkout, so a
# run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/adcbench" .)
exec "$build/adcbench" -out "$here/out" "$@"
