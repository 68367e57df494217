#!/usr/bin/env bash
# `go test "$@"`, except that a -run pattern which selects nothing in one
# of the listed packages is a failure. go test prints "[no tests to run]"
# for such a package and exits 0, so renaming a test would otherwise turn
# the CI step that names it into a vacuous pass.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
  echo "go-test-matched: the -run pattern matched no test in the package(s) above" >&2
  exit 1
fi
