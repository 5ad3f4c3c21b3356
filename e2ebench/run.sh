#!/usr/bin/env bash
# Builds strg-server and the e2ebench load generator from this checkout
# into .bench_build/, then runs one benchmark invocation:
#
#   bash e2ebench/run.sh --workload query_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry on, the go command forks a detached upload process once a
# day per config directory, i.e. on the first build in every checkout, and
# that process outlives this script. Turning it off first (the only go
# invocation that never forks it) leaves no process behind. Go before 1.23
# has neither the command nor the process.
go telemetry off 2>/dev/null || true
(cd "$root" && go build -o "$out/strg-server" ./cmd/strg-server)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/strg-server" -workdir "$out/work" "$@"
