#!/bin/sh
# Build the benchmark and the flux binary from source, then run the benchmark.
# Run from the root of a checkout:
#   sh perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
# With no arguments every workload runs once untraced and once traced.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/flux.ml ]; then
  echo "perfbench: run from the root of a flux checkout" >&2
  exit 2
fi

# Keep every file the build and the run write inside the checkout.
work="$PWD/.perfbench-work"
mkdir -p "$work/tmp"
export TMPDIR="$work/tmp"
export DUNE_CACHE=disabled

dune build --root . --display quiet ./perfbench/main.exe ./bin/flux.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
