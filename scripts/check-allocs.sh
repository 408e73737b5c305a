#!/usr/bin/env bash
# check-allocs.sh — perf-regression guard for the wire codec, the
# invoke path, the location directory and the telemetry hot path.
#
# Runs BenchmarkRuntimeCodec (allocs/op), BenchmarkRuntimeLocalInvoke,
# BenchmarkRuntimeLocalInvokeEncoded, BenchmarkRuntimeRemoteInvoke,
# BenchmarkRuntimeRemoteInvokeNamed, BenchmarkRuntimeMigration and
# BenchmarkRuntimeMoveBlock (allocs/op), BenchmarkDirectoryScale
# (bytes/obj, p99-hops), BenchmarkTelemetryRecord (allocs/op),
# BenchmarkShedPlan (allocs/op), BenchmarkJobPlan (allocs/op),
# BenchmarkHealthTick (allocs/op), BenchmarkPeerEcho (allocs/op) and
# BenchmarkGobStream (allocs/op)
# and fails if any reported value exceeds its ceiling in
# scripts/alloc-budget.txt. The wire codec, invoke, rpc echo and gob-stream
# budgets are exact (their allocation counts are deterministic — the
# append variants allocate only decode output, the routed-request core
# allocates nothing) and the telemetry budgets are zero (recording a
# counter, gauge, histogram sample or migration span must never
# allocate); the directory's bytes-per-object gets headroom for
# drift. Lowering a number after an optimisation is
# encouraged; raising one is a reviewed decision.
#
# Budget rows are "name budget [unit]"; the unit defaults to
# allocs/op. The value compared is the one immediately preceding the
# matching unit column in the benchmark output.
#
# Run from the repository root: ./scripts/check-allocs.sh
set -u
cd "$(dirname "$0")/.."

budget_file=scripts/alloc-budget.txt
out=$(go test -run '^$' -bench 'BenchmarkRuntimeCodec' -benchmem -benchtime 200x . 2>&1)
status=$?
echo "$out"
if [ "$status" -ne 0 ]; then
  echo "alloc check FAILED (benchmark did not run)"
  exit 1
fi

invout=$(go test -run '^$' -bench 'BenchmarkRuntime(LocalInvoke|LocalInvokeEncoded|RemoteInvoke|RemoteInvokeNamed|Migration|MoveBlock)$' -benchmem -benchtime 1000x . 2>&1)
invstatus=$?
echo "$invout"
if [ "$invstatus" -ne 0 ]; then
  echo "alloc check FAILED (invoke benchmark did not run)"
  exit 1
fi

dirout=$(go test -run '^$' -bench 'BenchmarkDirectoryScale' -benchtime 1x . 2>&1)
dirstatus=$?
echo "$dirout"
if [ "$dirstatus" -ne 0 ]; then
  echo "alloc check FAILED (directory benchmark did not run)"
  exit 1
fi

telout=$(go test -run '^$' -bench 'BenchmarkTelemetryRecord' -benchmem -benchtime 200x ./internal/telemetry 2>&1)
telstatus=$?
echo "$telout"
if [ "$telstatus" -ne 0 ]; then
  echo "alloc check FAILED (telemetry benchmark did not run)"
  exit 1
fi

shedout=$(go test -run '^$' -bench 'BenchmarkShedPlan' -benchmem -benchtime 20x . 2>&1)
shedstatus=$?
echo "$shedout"
if [ "$shedstatus" -ne 0 ]; then
  echo "alloc check FAILED (shed-plan benchmark did not run)"
  exit 1
fi
jobout=$(go test -run '^$' -bench 'BenchmarkJobPlan' -benchmem -benchtime 20x ./internal/jobs 2>&1)
jobstatus=$?
echo "$jobout"
if [ "$jobstatus" -ne 0 ]; then
  echo "alloc check FAILED (job-plan benchmark did not run)"
  exit 1
fi
healthout=$(go test -run '^$' -bench 'BenchmarkHealthTick' -benchmem -benchtime 200x ./internal/health 2>&1)
healthstatus=$?
echo "$healthout"
if [ "$healthstatus" -ne 0 ]; then
  echo "alloc check FAILED (health-tick benchmark did not run)"
  exit 1
fi
echoout=$(go test -run '^$' -bench 'BenchmarkPeerEcho' -benchmem -benchtime 1000x ./internal/rpc 2>&1)
echostatus=$?
echo "$echoout"
if [ "$echostatus" -ne 0 ]; then
  echo "alloc check FAILED (rpc echo benchmark did not run)"
  exit 1
fi
gobout=$(go test -run '^$' -bench 'BenchmarkGobStream' -benchmem -benchtime 1000x -cpu 1 ./internal/gobstream 2>&1)
gobstatus=$?
echo "$gobout"
if [ "$gobstatus" -ne 0 ]; then
  echo "alloc check FAILED (gob-stream benchmark did not run)"
  exit 1
fi
out="$out
$invout
$dirout
$telout
$shedout
$jobout
$healthout
$echoout
$gobout"

fail=0
while read -r name budget unit; do
  case "$name" in '' | '#'*) continue ;; esac
  [ -z "$unit" ] && unit=allocs/op
  # Benchmark lines append a -GOMAXPROCS suffix to the name; the value
  # is the column immediately preceding the unit column.
  actual=$(echo "$out" | awk -v n="$name" -v u="$unit" '
    $1 ~ "^"n"(-[0-9]+)?$" { for (i = 1; i <= NF; i++) if ($i == u) print $(i-1) }')
  if [ -z "$actual" ]; then
    echo "ALLOC GUARD: benchmark $name ($unit) missing from output"
    fail=1
    continue
  fi
  over=$(awk -v a="$actual" -v b="$budget" 'BEGIN { print (a > b) ? 1 : 0 }')
  if [ "$over" -eq 1 ]; then
    echo "PERF REGRESSION: $name reports $actual $unit, budget is $budget"
    fail=1
  fi
done <"$budget_file"

if [ "$fail" -ne 0 ]; then
  echo "alloc check FAILED"
  exit 1
fi
echo "alloc check OK"
