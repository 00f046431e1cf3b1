#!/usr/bin/env bash
# apicount.sh — size of the module's public surface and of its code.
#
# Prints, for every library package of the root module (commands and
# examples export nothing), the number of exported top-level funcs and
# types `go doc -all` lists (methods included, as `func (r *T) M` lines),
# then their total, then the number of lines of non-test and of test Go
# outside benchmark/ (the benchmark is a module of its own). Go files under
# a testdata/ directory (lint fixtures) are counted with the test lines:
# they are inputs to tests, not program code.
# Changes that delete code cite these counts before and after.
#
# Usage: scripts/apicount.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for pkg in $(go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	n=$(go doc -all "$pkg" 2>/dev/null | grep -cE '^(func|type) ' || true)
	printf '%5d  %s\n' "$n" "$pkg"
	total=$((total + n))
done
printf '%5d  total exported funcs and types\n' "$total"

lines=$(find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)
printf '%5d  lines of non-test Go outside benchmark/\n' "$lines"
lines=$(find . -name '*.go' \( -name '*_test.go' -o -path '*/testdata/*' \) -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l)
printf '%5d  lines of test Go outside benchmark/\n' "$lines"
