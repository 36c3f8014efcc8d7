#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. --trace 0 runs the untraced program (e2e)
# and prints the end-to-end metrics; --trace 1 builds and runs the traced
# program (traced) and prints the per-layer metrics. Build outputs, the Go
# build cache and the traced run's span files stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/netsim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/netsim and perfbench/go.mod not found)" >&2
	exit 2
fi

prog=e2e
prev=
for arg in "$@"; do
	if [[ "$prev" == --trace && "$arg" == 1 ]] || [[ "$arg" == --trace=1 ]]; then
		prog=traced
	fi
	prev=$arg
done

out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
# Build to a private name, then rename, so a reader never sees a partial file.
(cd perfbench && go build -o "$out/$prog.$$" "./$prog")
mv -f "$out/$prog.$$" "$out/$prog"
exec "$out/$prog" "$@"
