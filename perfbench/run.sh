#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and all
# scratch files stay under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp" XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --workdir "${out}/work" "$@"
