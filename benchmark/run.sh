#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments
# (see benchmark/README.md).  Run from anywhere inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
