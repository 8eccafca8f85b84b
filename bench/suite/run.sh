#!/usr/bin/env bash
# Build kbench from source and run one workload, printing the one-line
# summary as the last line of standard output:
#
#   bash bench/suite/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Run from the repository root.  Build output goes to stderr and stays in
# _build: the dune cache is off and the compiler's temporary files go to
# _build/tmp, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./bench/suite/kbench.exe 1>&2
exec ./_build/default/bench/suite/kbench.exe measure "$@"
