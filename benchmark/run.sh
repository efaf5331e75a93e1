#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. All arguments go to
# the harness: --workload NAME|all  --seed S  --seconds S  --trace 0|1
# --aa  --smoke.  See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export SNAP_BENCH_DIR="$here"
export SNAP_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export SNAP_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/snap-benchmark" "$@"
