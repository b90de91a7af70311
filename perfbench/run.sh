#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The binary, the Go build cache and the go
# command's own config and telemetry files stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out"
# The official Go install location, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
