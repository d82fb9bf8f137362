#!/usr/bin/env bash
# Builds perfbench and `tacc` from this checkout in one cargo build, then
# runs perfbench with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Build output goes to stderr; the
# last line perfbench prints on stdout is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
