#!/usr/bin/env bash
# A/A check: N complete sets of all four workloads on the current tree, then
# per workload x end-to-end metric the set values, their largest pairwise
# relative difference, the spread the driver computes (IQR / median), how
# much the later sets' median is worse than the earlier sets', and the bound
# from BENCHMARK.json. Exits non-zero when the driver's acceptance rule fails:
# a spread (other than setup_s's) or a worsening beyond the bound, or an
# exact metric that moved.
#
#   benchmark/aa.sh 5            # what README.md's table was made with
#   benchmark/aa.sh 2 5          # quick look: 2 sets of 5 s runs
#
# Keep the host idle while it runs: on two cores anything else is a neighbour.
set -euo pipefail

sets=${1:?usage: aa.sh <sets> [seconds]}
seconds=${2:-}
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out/aa"
run=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)

rm -rf "$out"
mkdir -p "$out"
for set in $(seq 1 "$sets"); do
  for workload in fig1_cold sched_warm serve_mix proc_cold; do
    echo "set $set/$sets: $workload" >&2
    # Each set draws its own inputs, as each of the driver's runs does.
    "${run[@]}" --workload "$workload" --seed "$set" --trace 0 \
      ${seconds:+--seconds "$seconds"} \
      --out "$out/set$set.$workload.json" >/dev/null
  done
done
"${run[@]}" aa "$out"
