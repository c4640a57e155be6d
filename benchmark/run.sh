#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through:
#   bash benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
# Run from the repository root. Build output goes to stderr; the build
# stays in ./_build, with dune's shared cache off so nothing is written
# outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
