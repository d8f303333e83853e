#!/bin/sh
# Regenerates every experiment table recorded in EXPERIMENTS.md.
# KB_SCALE=quick for a fast smoke pass; default (full) takes ~1-2 h.
set -u
cd "$(dirname "$0")/.."
for e in e1_amortized e2_total_time e3_scaling_n e4_scaling_delta \
         e6_rank e7_forward e8_ospg e9_collection \
         e10_decay e11_tails e12_ablation_coding e13_whp e15_loss e16_energy; do
  echo "=== exp_$e ==="
  cargo run --release -q -p kbcast-bench --bin "exp_$e" 2>&1 | tee "results/$e.txt"
done
