#!/usr/bin/env bash
# Builds qxbench from source at the root of a checkout and runs it with
# the given arguments, e.g.
#
#   bash qxbench/run.sh --workload restricted --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# Dune's shared cache is off so that nothing is written outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display=quiet ./qxbench/qxbench.exe >&2
exec ./_build/default/qxbench/qxbench.exe "$@"
