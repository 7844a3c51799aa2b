#!/usr/bin/env bash
# Builds gloved and glovebench from this checkout, then runs glovebench
# with the given arguments. Everything the build and the run
# leave behind goes under .bench_build/ at the repository root.
#
#   bash glovebench/run.sh --workload batch --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's cache, temp files, config and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
# -trimpath and -buildvcs=false make each binary depend on its source
# alone; glovebench keys its determinism records by their digest.
go build -trimpath -buildvcs=false -o "$out/bin/gloved" ./cmd/gloved
(cd glovebench && go build -trimpath -buildvcs=false -o "$out/bin/glovebench" .)
exec "$out/bin/glovebench" -gloved "$out/bin/gloved" -work "$out/work" "$@"
