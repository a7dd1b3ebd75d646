#!/usr/bin/env bash
# Paired, same-host campaign throughput gate:
#
#   bash scripts/campaign-gate.sh [BASE_REV]
#
# Builds cocobench at BASE_REV (default HEAD) and from the working tree,
# then runs `cocobench -campaign -passes 2` on both, interleaved, five
# times each. It fails if the working tree's median reference-row cells/s
# is below 0.85x the base median. Both builds run on the same host in
# alternating order, so host speed and load cancel out of the ratio.
# Only throughput is gated here: counter identity is checked against the
# committed baseline by `cocobench -campaign -check` (refreshed with
# `make bench-campaign` when a change alters the simulation on purpose),
# and each campaign run itself fails unless its workers 2/8 rows
# reproduce the reference row's counters.
set -euo pipefail

base="${1:-HEAD}"
runs=5

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
go build -C "$work/base" -o "$work/cocobench-base" ./cmd/cocobench
go build -C "$root" -o "$work/cocobench-head" ./cmd/cocobench

# Alternate which build runs first, so a drifting host load falls on both.
for i in $(seq 1 "$runs"); do
	order="base head"
	if [ $((i % 2)) -eq 0 ]; then
		order="head base"
	fi
	for side in $order; do
		"$work/cocobench-$side" -campaign -passes 2 -out "$work/$side-$i.json" 2>>"$work/log" ||
			{ cat "$work/log" >&2; exit 1; }
	done
done

python3 - "$work" "$runs" "$base" <<'PY'
import json
import statistics
import sys

work, runs, base = sys.argv[1], int(sys.argv[2]), sys.argv[3]
cps = {side: [json.load(open(f"{work}/{side}-{i}.json"))["reference"]["cells_per_sec"]
              for i in range(1, runs + 1)]
       for side in ("base", "head")}
for side in ("base", "head"):
    print(f"campaign-gate: {side} runs " + " ".join(f"{c:.1f}" for c in cps[side]))
med = {side: statistics.median(cps[side]) for side in ("base", "head")}
ratio = med["head"] / med["base"]
print(f"campaign-gate: base {base} median {med['base']:.1f} cells/s, "
      f"working tree {med['head']:.1f} cells/s ({ratio:.3f}x, {runs} interleaved runs each, floor 0.85x)")
if ratio < 0.85:
    print("campaign-gate: FAIL: working tree below 0.85x the base median")
    sys.exit(1)
print("campaign-gate: OK: throughput within bound")
PY
