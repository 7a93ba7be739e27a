#!/usr/bin/env bash
# Builds the benchmark and the mtpad daemon from this checkout, then runs
# one workload. From the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Binaries, the Go build cache and trace files stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/mtpabench" .)
(cd "$root" && go build -o "$out/mtpad" ./cmd/mtpad)
exec "$out/mtpabench" -root "$root" -mtpad "$out/mtpad" "$@"
