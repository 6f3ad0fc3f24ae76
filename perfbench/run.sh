#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload simulate|ingest|query --seed N --seconds S --trace 0|1
# Run from the repository root. Build products, the Go build cache and
# the run's scratch files (the members' WALs, the traced run's spans)
# all stay under $CARGO_TARGET_DIR, .bench_build/ in that root by default.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# Rebuild only when a source changed: rewriting the binary on every run
# would leave dirty pages whose writeback competes with the store's
# fsyncs during the measurement.
src=$(find go.mod internal perfbench -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs sha256sum | sha256sum)
if [ ! -x "$out/bin/perfbench" ] || [ "$(cat "$out/bin/perfbench.src" 2>/dev/null)" != "$src" ]; then
	go -C perfbench build -o "$out/bin/perfbench" .
	echo "$src" >"$out/bin/perfbench.src"
fi
exec "$out/bin/perfbench" --out "$out" "$@"
