#!/usr/bin/env bash
# Build the `repro` binary and the `perfbench` binary from source, then
# run `perfbench` with the given arguments:
#
#   bash perfbench/run.sh --workload paper_full --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); build logs go to stderr so the last line of
# stdout stays the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
