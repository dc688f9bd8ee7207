#!/usr/bin/env bash
# Build mqdp_serve and the benchmark in the release profile, then run the
# benchmark from the repository root. Arguments pass through to main.exe:
#   bash bench/e2e/run.sh --seed 1
#   bash bench/e2e/run.sh --workload fanout --seed 3 --seconds 10 --trace 1
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/mqdp_serve.ml ] || [ ! -d lib/mqdp ]; then
  echo "run.sh: run from the root of an mqdp checkout (bin/mqdp_serve.ml not found)" >&2
  exit 1
fi

# Build output goes to stderr so the last line of stdout stays the result.
# The shared dune cache is off: a run reads and writes only its checkout.
dune build --cache=disabled --profile release \
  bin/mqdp_serve.exe bench/e2e/main.exe 1>&2

exec ./_build/default/bench/e2e/main.exe "$@"
