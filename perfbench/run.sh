#!/usr/bin/env bash
# Build the benchmark driver from source and run it:
#   bash perfbench/run.sh --workload design|serve_hot|serve_churn \
#     --seed N --seconds S --trace 0|1
# Run from the root of a LegoDB checkout.  Build output goes to stderr;
# the last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a LegoDB source tree (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
# the dune cache lives outside the checkout, so it stays off
dune build --root . --cache=disabled ./perfbench/lb_bench.exe 1>&2
exec ./_build/default/perfbench/lb_bench.exe "$@"
