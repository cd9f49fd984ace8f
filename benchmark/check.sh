#!/usr/bin/env bash
# Smoke check of the benchmark, ready for ci.sh to call: runs every
# workload, timed and traced, at a tenth of the size (about half a
# minute), and fails unless every metric BENCHMARK.json declares is
# printed exactly once per workload with its declared unit, and every
# output check passed (pass_ratio = 1).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke)

# BENCHMARK.json keeps one workload or metric per line.
workloads=$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
metrics=$(sed -n 's/^ *{"name": "\([^"]*\)", "unit": "\([^"]*\)".*/\1 \2/p' BENCHMARK.json)
[ -n "$workloads" ] && [ -n "$metrics" ] || { echo "check.sh: cannot read BENCHMARK.json" >&2; exit 1; }

status=0
for workload in $workloads; do
    while read -r name unit; do
        seen=$(printf '%s\n' "$out" | awk -v w="$workload" -v n="$name" -v u="$unit" \
            '$1 == "metric" && $2 == w && $3 == n && $5 == u { c++ } END { print c + 0 }')
        if [ "$seen" -ne 1 ]; then
            echo "check.sh: $workload $name [$unit] printed $seen times, wanted once" >&2
            status=1
        fi
    done <<< "$metrics"
    if ! printf '%s\n' "$out" | grep -qx "metric $workload pass_ratio 1 ratio"; then
        echo "check.sh: $workload pass_ratio is not 1" >&2
        status=1
    fi
done

[ "$status" -eq 0 ] && echo "check.sh: $(printf '%s\n' $workloads | wc -l) workloads, $(printf '%s\n' "$metrics" | wc -l) metrics each, all present, all outputs correct"
exit "$status"
