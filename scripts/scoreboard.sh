#!/usr/bin/env bash
# The simplicity scoreboard (ROADMAP item 10): non-test Go lines outside
# benchmark/, in total and per package. CHANGES.md quotes these numbers
# and CI's test job prints them, so they are the same numbers.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
files() { find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*'; }
for dir in $(files . | xargs -n1 dirname | sort -u); do
  printf '%7d %s\n' "$(files "$dir" -maxdepth 1 | xargs cat | wc -l)" "${dir#./}"
done
printf '%7d non-test Go lines outside benchmark/\n' "$(files . | xargs cat | wc -l)"
