#!/usr/bin/env bash
# Builds the SELF-SERV benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#
#   bash perfbench/run.sh --workload chain8-inmem --seed 1 --seconds 10 --trace 0
#
# Every file the build or the run writes (Go build cache, temp files,
# journals, span dumps, the binary) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/cache" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# The replace directive in perfbench/go.mod points at the repository
# root; outside a full checkout the build fails and so does this script.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
