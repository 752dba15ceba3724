#!/usr/bin/env bash
# Build the benchmark and the library it measures from this checkout's
# sources, then run it:
#   bash perfbench/run.sh --workload paper_mix --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
