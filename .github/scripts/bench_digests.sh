#!/usr/bin/env bash
# Write the benchmark digests of one source tree.
#
# Usage: .github/scripts/bench_digests.sh TREE OUT_DIR
#
# Runs `perfbench/run.py --scale smoke --seed 7 --seconds 1` on every
# workload in TREE, under whatever PYTHONHASHSEED the caller sets, and
# writes each workload's `digest` lines, one per input set, to
# OUT_DIR/<workload>.txt. Exits non-zero if a run is not correct or prints
# no digest. Two trees, or two hash seeds, conclude alike when
# `diff -r` finds their output directories equal.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 TREE OUT_DIR" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
run=$(mktemp)
trap 'rm -f "$run"' EXIT

for workload in paper-fontsize streaming-lossy adaptive-close; do
  python3 "$tree/perfbench/run.py" --workload "$workload" --scale smoke \
    --seed 7 --seconds 1 > "$run"
  tail -n 1 "$run" | python3 -c \
    'import json, sys; assert json.load(sys.stdin)["correct"] is True' \
    || { echo "$tree: $workload run is not correct" >&2; exit 1; }
  grep '^digest' "$run" > "$out/$workload.txt" \
    || { echo "$tree: $workload printed no digest" >&2; exit 1; }
done
