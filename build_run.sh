#!/usr/bin/env bash
# Build the simulator, run the full test suite, and execute every
# table/figure bench — the analogue of the original artifact's
# build_run.sh (paper Appendix A). Outputs are tee'd next to this
# script as test_output.txt and bench_output.txt.

set -u
cd "$(dirname "$0")"

echo "=== Configure + build ==="
cmake -B build || exit 1
cmake --build build || exit 1

echo "=== Tests ==="
ctest --test-dir build 2>&1 | tee test_output.txt

echo "=== Benches (tables & figures) ==="
: > bench_output.txt
for b in build/bench/bench_*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "### $(basename "$b")" | tee -a bench_output.txt
    "$b" 2>/dev/null | tee -a bench_output.txt
done

echo "Done. See test_output.txt and bench_output.txt."
