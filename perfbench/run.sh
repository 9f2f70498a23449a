#!/usr/bin/env bash
# Build pcda and the benchmark from this checkout, then run one workload:
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest      # determinism check, short scripts
# Build output goes to stderr; the last stdout line is the JSON result.
#
# The benchmark is a dune project of its own: this script copies lib/,
# bin/, dune-project and perfbench/_src into .perfbench/ws and builds
# there, leaving the repository's own build untouched.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/pcda.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from a full checkout of the repository" >&2
  exit 2
fi
ws=.perfbench/ws
mkdir -p "$ws"
rm -rf "$ws/lib" "$ws/bin" "$ws/perfbench"
cp -R lib bin dune-project "$ws/"
cp -R perfbench/_src "$ws/perfbench"
export DUNE_CACHE=disabled
dune build --root "$ws" --display quiet bin/pcda.exe perfbench/main.exe >&2

# Timed runs put the bench and the server it spawns on one CPU: a request
# then never waits for the other CPU to wake, which on a shared host is
# the most variable part of a round trip. Traced runs leave them apart,
# so that the server's own request timer never includes client work.
pin=()
if command -v taskset > /dev/null && [[ " $* " != *" --trace 1 "* ]]; then
  cpus=$(taskset -cp $$ | sed 's/.*: *//')
  pin=(taskset -c "${cpus##*[,-]}")
fi
exec "${pin[@]}" "$ws/_build/default/perfbench/main.exe" \
  --pcda "$ws/_build/default/bin/pcda.exe" --workdir .perfbench "$@"
