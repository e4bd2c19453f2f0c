//! Sharded serving for PQS-DA: scale-out of the suggestion engine across
//! N independent shards with online log ingestion, zero-downtime
//! snapshot reloads, and fault-tolerant degraded serving.
//!
//! The crate is a thin production layer over `pqsda`'s single-node engine:
//!
//! - [`router`] — consistent-hash routing of users/queries/log entries to
//!   shards over a deterministic FNV-1a virtual-node ring ([`HashRing`]:
//!   pure content hashing, survives restarts and rebuilds, and a resize
//!   only relocates the ~1/N of keys the new shard claims),
//! - [`swap`] — `ArcSwap`-style snapshot publication with generation tags
//!   and content digests ([`ShardTag`]), validated before publish
//!   ([`ShardSnapshot::verify`]),
//! - [`replica`] — R serving replicas per shard ([`ReplicaSet`]) with
//!   round-robin primary selection,
//! - [`fault`] — the fault model: [`FaultConfig`] knobs (deadlines,
//!   hedging, per-shard circuit [`Breaker`]s), the deterministic
//!   [`FaultPlan`] injection harness, and [`FaultStats`] counters,
//! - [`gather`] — the one fault-tolerant scatter-gather loop both
//!   transports drive ([`gather()`]): breaker admission, primary/backup
//!   attempts, failover, hedging and the deadline, woken by a
//!   per-request completion signal instead of polling,
//! - [`histogram`] — exponentially-decayed, log-bucketed latency
//!   histograms ([`DecayedHistogram`]) sizing the hedge budgets,
//! - [`admission`] — the deadline-aware [`AdmissionGate`]: shed load
//!   with an explicit rejection when the projected wait exceeds the
//!   request deadline,
//! - [`coalesce`] — singleflight [`Coalescer`] for duplicate in-flight
//!   requests (followers reuse the leader's reply verbatim),
//! - [`ingest`] — a bounded, non-blocking delta queue with backpressure
//!   and deadline-aware shedding,
//! - [`sharded`] — [`ShardedPqsDa`], the scatter-gather facade tying it
//!   together: build, serve (healthy or degraded, with honest
//!   [`Coverage`] reporting), ingest, `apply_deltas` (rate-limited
//!   per-shard incremental delta application with cold-rebuild fallback,
//!   swap validation + rollback), stats.
//!
//! With one shard the router-merged output is bit-identical to the plain
//! [`pqsda::PqsDa`] engine — pinned by the equivalence proptest in
//! `tests/equivalence.rs` — so sharding is a pure deployment decision,
//! not a quality trade-off. Under faults the contract weakens honestly:
//! a full-coverage reply is still bit-identical to the healthy engine,
//! and a degraded reply equals the healthy merge over exactly the shards
//! whose tags it carries (pinned by the chaos soak in `tests/chaos.rs`).

pub mod admission;
pub mod coalesce;
pub mod fault;
pub mod gather;
pub mod histogram;
pub mod ingest;
pub mod replica;
pub mod router;
pub mod sharded;
pub mod store;
pub mod swap;

pub use admission::{AdmissionGate, AdmissionStats, Rejection, ServicePermit};
pub use coalesce::{CoalesceStats, Coalescer, Join, LeaderToken};
pub use fault::{
    Admission, Breaker, BreakerState, ChaosProfile, FaultConfig, FaultKind, FaultPlan, FaultStats,
};
pub use gather::{gather, Answer, Fanout, GatherCounters, ShardHealth};
pub use histogram::{hedge_delay, DecayedHistogram, HistogramSnapshot};
pub use ingest::{IngestOffer, IngestQueue, IngestStats};
pub use replica::ReplicaSet;
pub use router::{
    partition_entries, request_targets, route_query, route_query_text, route_user, HashRing,
    PartitionKey, VNODES_PER_SHARD,
};
pub use sharded::{
    merge_rank_stratified, shard_probe, Coverage, ServeConfig, ServeOutcome, ServeReply,
    ServeStats, ShardedPqsDa, SuggestService, SwapReport,
};
pub use store::{
    load_server, save_server, shard_file, CommitReport, LoadReport, SaveReport, Snapshotter,
    ROUTER_FILE, WAL_FILE,
};
pub use swap::{ShardSnapshot, ShardTag, Swap};
