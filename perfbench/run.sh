#!/usr/bin/env bash
# Builds ekbtreed and the perfbench command from this checkout, then runs one
# workload. Every build and run artefact stays under .bench_build at the
# checkout root.
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 8 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ekbtreed" ]]; then
	echo "perfbench: no ekbtree module with cmd/ekbtreed at $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
# The go command otherwise starts a detached telemetry process that can
# outlive this script.
printf off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/bin/ekbtreed" github.com/paper-repro/ekbtree/cmd/ekbtreed
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -server "$out/bin/ekbtreed" -work "$out" "$@"
