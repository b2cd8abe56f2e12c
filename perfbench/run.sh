#!/bin/sh
# Build the benchmark and the wire server from source, then make one
# measured run:  sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -e
cd "$(dirname "$0")/.."
dune build --root . --display quiet @perfbench/bench 1>&2
exec ./_build/default/perfbench/main.exe run "$@"
