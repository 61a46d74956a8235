#!/bin/sh
# Build the benchmark from source and run it with the given arguments, from
# the root of a checkout:  sh bench/e2e/bench.sh --workload load-read --seed 1 --seconds 10 --trace 0
# The build goes to the checkout's _build; dune's shared cache is not used.
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --no-print-directory --display quiet --cache disabled \
  bench/e2e/ptm_bench.exe -- "$@"
