#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the ledger from source into
# .bench_build at the root of the checkout, then runs it with the arguments
# given (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything written — Go's build cache, the binary, WAL and checkpoint
# files, trace files — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ledger" .)
exec "$build/ledger" -dir "$build/data" -out "$here/out" "$@"
