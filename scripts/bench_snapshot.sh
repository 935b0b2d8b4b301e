#!/usr/bin/env bash
# Record the perf trajectory in-repo: run the self-timing snapshot binaries
# and write, at the repo root, BENCH_quant.json (serving: f32 and i8 stores
# × brute scan and HNSW) and BENCH_drift.json (streaming deltas +
# incremental refresh). Those two are committed; BENCH_scale.json
# (million-node tiers) is generated here and gated in CI but too
# machine-dependent to commit — it stays local / an artifact.
#
# Positional arguments override the output paths, in this order:
#   scale quant drift
#
# The JSON comes from self-timing binaries (plain Instant-based timing);
# the workspace has no third-party dependencies, so this runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_OUT="${1:-BENCH_scale.json}"
QUANT_OUT="${2:-BENCH_quant.json}"
DRIFT_OUT="${3:-BENCH_drift.json}"

# Million-node scale path (setup / logreg-eval / full-pipeline tiers at
# 40k, 400k, 1M, and 4M nodes — the slowest snapshot by far).
cargo run --release -p transn-bench --bin scale_snapshot -- "$SCALE_OUT"
# Serving path (f32/i8 brute scan and f32 HNSW on the 32k and commerce-mid
# tiers, recall@10 vs the exact f32 oracle).
cargo run --release -p transn-bench --bin quant_snapshot -- "$QUANT_OUT"
# Streaming drift — incremental refresh vs full retrain over K timestamped
# delta rounds (temporal link-prediction AUC + wall-clock).
cargo run --release -p transn-bench --bin drift_snapshot -- "$DRIFT_OUT"

echo "snapshots written to $SCALE_OUT, $QUANT_OUT, and $DRIFT_OUT"
echo "(committed at repo root: quant, drift; scale stays local/CI-artifact)"
