#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and the harness's scratch files stay in
# the build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-config" "$build/tmp"

export GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/go-config" TMPDIR="$build/tmp"
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)

cd "$root"
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
