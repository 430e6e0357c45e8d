#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Works from any directory inside an armb source tree; builds into _build/
# at its root and writes run artifacts under perfbench/out/.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -d lib/soak ]; then
  echo "perfbench: $(pwd) is not an armb source tree (no dune-project or lib/)" >&2
  exit 2
fi
if ! dune build --root . -j 2 ./perfbench/src/armbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/src/armbench.exe run "$@"
