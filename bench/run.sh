#!/usr/bin/env bash
# The one command of the benchmark: build rdo-perf, then run it.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1    one run; the last
#                                                                 line is its result
#   bench/run.sh [--quick] [--runs N] [--seed N] [--seconds S]    every workload,
#                                                                 untraced then traced;
#                                                                 writes bench/results/
#   bench/run.sh compare A.json B.json                            verdict per metric
#
# Run from the repository root. The build honours CARGO_TARGET_DIR and
# otherwise shares the repository's target/ directory.
set -euo pipefail

target_dir="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml --target-dir "$target_dir" >&2
exec "$target_dir/release/rdo-perf" "$@"
