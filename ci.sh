#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Perf harness in smoke mode: asserts every kernel is bit-identical
# across thread counts, that the cross-bipartite hitting-time sweep costs
# at most 2x its floor of horizon x 3 plain layer SpMVs at the serving
# shape (512 queries, 10 targets; median of interleaved call pairs), that
# preparing a memo entry (`Diversifier::for_backend`) costs at most 1.15x
# its Eq. 15 assembly (`Regularizer::new`) at the same shape, i.e. the
# Algorithm 1 walk is not built on a miss (same pair protocol), that the
# assembly costs at most 1.4x the three compact W W^T products it gathers
# from each bipartite's Gram matrix instead of computing
# (`miss_compact_products`; same pair protocol), that a
# memo-hit `PqsDa::diversify_scored` at k = 10 costs at most 0.1x
# recomputing Algorithm 1 on the same entry, i.e. a repeated request's
# selection is served from its memo entry (same pair protocol), that
# a memo-hit k = 10 request through a 2-shard server's deadline-bounded
# scatter-gather costs at most 6x probing the same shards serially
# (`gather_overhead`: the caller blocks on a completion signal instead
# of polling; same pair protocol), that a 1% delta through
# `apply_delta` is digest-equal to — and at least 5x cheaper than — a
# cold full rebuild, and that an mmap snapshot cold
# start is at least 10x faster than a rebuild with bit-identical replies
# (minimal time budget, no BENCH_perf.json write).
cargo run --release -q -p pqsda-bench --bin perf -- --smoke
# Serving smoke: 1-shard output asserted identical to the unsharded
# engine, then a 2-shard server through a mid-stream ingest + swap,
# with the incremental path asserted equivalent to a cold rebuild.
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --smoke
# Chaos smoke: fault-injected serving (panics, latency spikes, a corrupt
# swap) asserted honest — full-coverage replies bit-identical to the
# healthy engine, degraded replies subset-consistent, rollback counted.
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --chaos-smoke
# Snapshot smoke: a saved 2-shard server must refuse a corrupted shard
# file, load bit-identically over mmap, and replay a WAL-logged delta
# batch (plus a deliberately torn tail) through restart to exactly the
# pre-crash state.
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --snapshot-smoke
# Open-loop smoke: a seeded arrival schedule at a modest offered rate must
# serve everything with zero deadline violations; a saturating schedule
# against a slowed server must shed via explicit Rejected replies only
# (the load generator aborts on any silent drop).
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --open-loop-smoke
# Net smoke: real shard-server processes over UDS speaking the checksummed
# wire protocol. Full-coverage replies asserted bit-identical to the
# in-process server for shard counts {1, 2, 4}; a shard process SIGKILLed
# mid-load must degrade honestly (healthy-subset merges, never an error);
# the whole gate is wall-clock bounded, so a hang fails it.
cargo run --release -q -p pqsda-cli --bin pqsda -- serve --net-smoke
# Scenario smoke: the quality-gated A/B harness over all six adversarial
# synthetic packs at the pinned seed — diversity must raise unique@k and
# lower max-share@k under the intent-aware nDCG guard, warm-trained
# personalization must beat off for warm users (and pass cold users
# through untouched), and tau-conditioning must win on the drift pack.
# Every verdict is significance-backed; any gate failure fails the build.
cargo run --release -q -p pqsda-cli --bin pqsda -- scenario --smoke
# Backend smoke: the ranking-backend head-to-head packs. Structural gates
# pin the pluggable-pipeline contracts — the default backend bit-stable
# across fresh builds and thread counts, BiRank deterministic and
# complete, intent fusion a pure permutation that passes anonymous
# requests through to the default backend untouched.
cargo run --release -q -p pqsda-cli --bin pqsda -- scenario --backends --smoke
echo "ci: all green"
