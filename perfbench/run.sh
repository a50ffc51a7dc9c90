#!/usr/bin/env bash
# Build the benchmark and the sxopt daemon from this source checkout,
# then run one workload:
#
#   bash perfbench/run.sh --workload serve-cold|serve-warm|matrix|all \
#        --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works from the checkout root. The last line of
# standard output is the JSON result. See perfbench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a source checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
# keep every build output inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/sxopt.exe >&2
commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
main=(./_build/default/perfbench/main.exe --sxopt ./_build/default/bin/sxopt.exe
  --commit "$commit")
# Pin the benchmark, the daemon it starts and its calibration kernel to
# one CPU (the first this process may use): the host's cores drift in
# speed independently, and the calibration must time the core the work
# ran on.
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status 2>/dev/null || true)
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$cpu" "${main[@]}" --pinned-cpu "$cpu" "$@"
fi
exec "${main[@]}" "$@"
