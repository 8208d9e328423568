#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout this
# script lives in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.json new.json
#
# Every build and run artifact (Go build cache, temp files, the binary,
# result files) stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"

(
	cd "${root}/perfbench"
	env GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" \
		GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod" \
		XDG_CONFIG_HOME="${build}/config" GOENV=off GOWORK=off \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "${build}/perfbench" .
)

cd "${root}"
export TMPDIR="${build}/tmp"
exec "${build}/perfbench" -results "${build}/results" "$@"
