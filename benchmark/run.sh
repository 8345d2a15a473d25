#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it. Everything the go
# tool writes (build cache, module cache, telemetry counters, the binary)
# lands in .bench_build/ at the root of the checkout, which .gitignore names.
# BENCHMARK.json's command is `bash benchmark/run.sh`; arguments are passed
# through to the program (`bash benchmark/run.sh -h` lists them).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

# No network, no toolchain download, nothing outside the checkout. The build
# log goes to stderr: stdout is the program's alone.
# VCS stamping is off (it fails where git distrusts the directory); the
# revision for the header is passed in when there is one.
rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(
	cd "$here"
	GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOENV=off XDG_CONFIG_HOME="$out/config" \
		GOPROXY=off GOTOOLCHAIN=local \
		go build -buildvcs=false -ldflags "-X main.gitRevision=$rev" -o "$out/benchmark" .
) >&2
exec "$out/benchmark" "$@"
