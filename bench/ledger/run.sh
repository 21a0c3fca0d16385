#!/usr/bin/env bash
# Configures the repository build (Release) into build-ledger with the
# ledger added by AddLedger.cmake, builds mutk_ledger and the mutkd it
# spawns, then runs the ledger with the given arguments, e.g.
#
#   bash bench/ledger/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the run's JSON.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-ledger"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S "$root" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PROJECT_mutk_INCLUDE="$here/AddLedger.cmake" >&2
fi
cmake --build "$build" --parallel 4 --target mutk_ledger >&2
exec "$build/mutk_ledger" "$@"
