#!/bin/sh
# Print every end-to-end metric, with its unit and the failed-op count, for
# all three workloads, each run in a fresh process.
# usage: sh perfbench/all.sh [seed] [seconds]
set -e
cd "$(dirname "$0")/.."
for workload in report-small report-mid build-large; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" --seconds "${2:-40}" \
        | grep -v '^{'
done
