#!/bin/sh
# Build the benchmark from this checkout and run it:
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it builds stays in the checkout's _build (the shared dune
# cache is off).  See perfbench/README.md.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no amblib sources here (dune-project and lib/ are missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
