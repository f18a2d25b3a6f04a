#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus all ablations.
# Outputs: results/*.csv plus a combined console log on stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --bins

EXPERIMENTS=(table1 table2 fig3 fig4 fig5 fig6 fig7 fig8
             ablation_batching ablation_pipeline
             ablation_multitm ablation_memo ablation_fig7_real ablation_fig8_real)

log=$(mktemp)
for exp in "${EXPERIMENTS[@]}"; do
  echo "######## $exp"
  "./target/release/$exp" | tee -a "$log"
  echo
done

echo "######## summary"
echo "shape checks: $(grep -c PASS "$log") PASS, $(grep -c FAIL "$log" || true) FAIL"
rm -f "$log"
