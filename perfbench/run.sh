#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Build output goes to stderr, so the run's JSON result stays the last
# line of stdout. CARGO_TARGET_DIR picks the build directory (default
# .bench_build at the repository root).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
