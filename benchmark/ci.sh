#!/usr/bin/env bash
# The benchmark's own gate: its self-tests, then every workload at smoke
# scale (1 repeat, a tenth of the operations, every output check on), traced
# and untraced. Extra arguments go to `run` (e.g. --allow-tmpfs).
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline
cargo run --release --offline --quiet -- run --smoke "$@"
cargo run --release --offline --quiet -- run --smoke --trace "$@"
