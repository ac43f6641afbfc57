#!/bin/bash
# Regenerates every table and figure of the paper, and the four extension
# experiments (ablation, markov_comparison, error_profile, baselines), into
# results/.
# XPE_SCALE=1.0 targets the original corpus sizes; 0.1 (the default here)
# keeps the full sweep in the minutes range.
set -eo pipefail
cd "$(dirname "$0")/.."
export XPE_SCALE="${XPE_SCALE:-0.1}" XPE_ATTEMPTS="${XPE_ATTEMPTS:-4000}" XPE_SEED="${XPE_SEED:-42}"
mkdir -p results
for bin in table1 table2 table3 table4 table5 fig9 fig10 fig11 fig12 fig13 ablation markov_comparison error_profile baselines; do
  echo "=== running $bin (scale $XPE_SCALE) ==="
  cargo run -q --release -p xpe-bench --bin "$bin" | tee "results/$bin.txt"
done
echo "all experiments done; outputs in results/"
