#!/usr/bin/env bash
# Build merlin_ledger from this checkout (the first call configures and
# builds; later calls only rebuild what changed) and run it.
#
#   bench/ledger/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run of one workload.  Prints `workload metric value unit`
#       lines, then its result JSON as the last line.
#   bench/ledger/run.sh [--seed N] [--runs K] [--seconds S] [--out FILE]
#       Every workload: K measured runs and one traced run, each in its
#       own process, merged into one merlin-bench-v1 ledger at FILE
#       (default build/ledger/ledger.json).  Exits nonzero when an
#       outcome check failed.
#   bench/ledger/run.sh compare OLD NEW | smoke | merge ... | list
#       The ledger's other commands (see bench/ledger/README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/ledger"
ledger="$build/merlin_ledger"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then
    jobs=4
fi

mkdir -p "$build"
log="$build/build.log"
if ! { [ -f "$build/CMakeCache.txt" ] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" -j "$jobs" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run.sh: building merlin_ledger failed (log: $log)" >&2
    exit 1
fi

case "${1:-}" in
    compare | smoke | merge | list) exec "$ledger" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$ledger" run "$@"
    fi
done

seed=1
runs=1
seconds=25
out="$build/ledger.json"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

docs="$build/docs"
rm -rf "$docs"
mkdir -p "$docs"
for w in $("$ledger" list); do
    for r in $(seq 1 "$runs"); do
        "$ledger" run --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out "$docs/$w.$r.json" | sed '/^{/d'
    done
    "$ledger" run --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace 1 --out "$docs/$w.traced.json" \
        --trace-out "$build/trace-$w.json" | sed '/^{/d'
done
rev="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
exec "$ledger" merge --out "$out" --git-rev "$rev" "$docs"/*.json
