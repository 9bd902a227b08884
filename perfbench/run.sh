#!/usr/bin/env bash
# Builds wfsimd and the benchmark program from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload query-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, corpora,
# data directories, traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (the default "local" mode) the go command forks a detached
# upload sidecar that outlives it; turn it off so no process is left behind.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
cd "$root/perfbench"
go build -o "$out/wfsimd" repro/cmd/wfsimd
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -root "$root" -bin "$out/wfsimd" -work "$out" "$@"
