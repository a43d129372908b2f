#!/usr/bin/env bash
# Run every workload of the benchmark once, from the root of
# the repository: `bash perfbench/all.sh [seed] [seconds] [trace]`.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
trace="${3:-0}"
for w in drive_dense table2_fan chaos_campaign; do
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
