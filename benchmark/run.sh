#!/usr/bin/env bash
# One benchmark run in one fresh process:
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh <name> [--traced] [--seed N] [--seconds S]
# Builds the benchmark (and, through its path dependency, the repo) offline
# into $CARGO_TARGET_DIR, or benchmark/target when that is not set.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Part of the workloads' definition, like their thread counts, and not a
# setting: an inherited value is overwritten. glibc's default of 8 malloc
# arenas per core lets fig6_wide's short-lived replay threads spread over up
# to 16 arenas, and its peak RSS then depends on thread timing; four arenas
# (main, two workers, one spare) make it repeat and move no time metric.
export MALLOC_ARENA_MAX=4
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/scr-benchmark" "$@"
