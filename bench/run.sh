#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds objmig-bench from the
# sources of this checkout, keeping every build product inside the
# checkout (.bench_build/), and runs it from the checkout root with the
# arguments given: --workload <name> --seed <n> --seconds <n> --trace <0|1>.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/objmig-bench" ./cmd/objmig-bench)
cd "$root"
exec "$build/objmig-bench" "$@"
