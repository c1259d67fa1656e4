#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source inside the
# checkout and runs it with the arguments given. Build cache, module cache
# and temporary files all live under .bench_build/, so nothing is written
# outside the checkout. `go run ./benchmark` does the same with the user's
# own caches and temporary directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program under test is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -o "$build/interedge-benchmark" ./benchmark
# The IPC module transport (the sn.module_rtt_ipc_us row) listens on a unix
# socket in the temporary directory; a relative one keeps the socket's path
# under the 108-byte limit wherever the checkout is.
TMPDIR=.bench_build/tmp exec "$build/interedge-benchmark" -out "$PWD/.bench_out" "$@"
