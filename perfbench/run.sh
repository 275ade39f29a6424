#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:  bash perfbench/run.sh --workload converge --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
