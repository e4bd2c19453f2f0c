#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lints, formatting, then the
# checks `cargo test` cannot make. Each serving contract is asserted in one
# place; DESIGN.md §8.1 maps every contract to the test that asserts it.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Kernel bit-identity across thread counts and the in-run ratio gates
# (hitting sweep at <= 1.2x its SpMV floor, memo miss and hit, gather
# overhead, delta apply, mmap cold start; each the median of 101
# alternating pairs) at a minimal time budget; the module doc of
# crates/bench/src/bin/perf.rs lists each gate. Writes no BENCH_perf.json.
cargo run --release -q -p pqsda-bench --bin perf -- --smoke
# Real `pqsda shard-server` child processes over UDS (DESIGN.md §8.1, §15).
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --net-smoke
# Scenario quality gates over the six packs at the pinned seed (DESIGN.md §13).
cargo run --release -q -p pqsda-cli --bin pqsda -- scenario --smoke
# Ranking-backend head-to-head packs (DESIGN.md §14).
cargo run --release -q -p pqsda-cli --bin pqsda -- scenario --backends --smoke
echo "ci: all green"
