#!/usr/bin/env bash
# loc.sh — the line counts simplicity PRs report, counted one way.
#
# The rule: physical lines (`wc -l`) of every .go file that is not a
# _test.go file, comments and blanks included — a change cannot shrink
# the number by reflowing into test files, and nobody has to agree on
# what a "code line" is. bench/ is its own module and is not counted.
#
# Run from anywhere: ./scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

# count <find-args…>: total lines of the non-test .go files find prints.
count() {
  find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

printf '%-28s %6d\n' 'root package' "$(count . -maxdepth 1)"
printf '%-28s %6d\n' 'move.go + migrate.go' "$(cat move.go migrate.go | wc -l)"
printf '%-28s %6d\n' 'migrate.go + migsession.go' "$(cat migrate.go migsession.go | wc -l)"
printf '%-28s %6d\n' 'autopilot.go + placement.go' "$(cat autopilot.go placement.go | wc -l)"
printf '%-28s %6d\n' 'stats + telemetry (3 files)' "$(cat nodestats.go telemetry.go internal/telemetry/telemetry.go | wc -l)"
printf '%-28s %6d\n' 'internal/wire' "$(count internal/wire)"
printf '%-28s %6d\n' 'internal/rpc' "$(count internal/rpc)"
printf '%-28s %6d\n' 'internal/ total' "$(count internal)"
