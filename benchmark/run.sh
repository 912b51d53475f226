#!/bin/sh
# The reference benchmark, from any working directory.
#
#   benchmark/run.sh [--seed N] [--quick]        the whole benchmark
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                one run of one workload
#   benchmark/run.sh compare A.json B.json       two results, row by row
#
# Builds offline into CARGO_TARGET_DIR (default benchmark/target) and
# passes every argument through. README.md has the rest.
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
