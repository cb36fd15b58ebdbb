#!/usr/bin/env bash
# Build the `dds` binary and the benchmark (release), then run one
# benchmark pass:
#   bash benchmark/run.sh --workload sim-triangle --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dds-cli --bin dds >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/dds-repo-bench" --dds "$target/release/dds" --root "$root" "$@"
