//! The sharded serving engine: scatter-gather suggestion over N
//! independent [`PqsDa`] shards with score-ordered merging, plus the
//! writer side (delta ingestion → per-shard incremental update, with a
//! cold-rebuild fallback → snapshot swap) and the fault-tolerance layer
//! (replica probes, hedged requests, deadlines, circuit breakers,
//! validated swaps — see DESIGN §10).
//!
//! ## Id spaces
//!
//! Requests and responses speak the **router log**'s [`QueryId`] space
//! (the interned full log). Each shard interns its own partition, so ids
//! differ per shard; translation goes through normalized query *text* in
//! both directions — an O(1) hash lookup per id, and the only
//! representation that is stable across rebuilds.
//!
//! ## Merge
//!
//! Each consulted shard returns its top-k `(query, F*)` list in rank
//! order. The router merges **rank-stratified**: all shards' rank-0
//! candidates (ordered by relevance score, ties toward the smaller global
//! id), then rank-1, and so on until `k` distinct queries are collected.
//! Rank position encodes the diversification order (Algorithm 1's
//! discovery order *is* the ranking), so stratifying by rank preserves
//! each shard's diversity structure while relevance orders candidates
//! within a stratum. With one shard the merge is the identity — the
//! equivalence proptest pins sharded N=1 output to the unsharded engine,
//! bit for bit.
//!
//! ## Degraded serving
//!
//! A reply built from a subset of the responsible shards is a strictly
//! better answer than an error: every merged list over K of N shards is
//! exactly what a healthy K-shard deployment of the same partitions would
//! have returned. [`ServeReply::coverage`] says honestly which case the
//! caller got; the chaos tests pin full-coverage replies bit-identical to
//! the healthy engine and degraded replies to the merge over precisely
//! the shards whose tags appear in the reply.

use crate::admission::{AdmissionGate, AdmissionStats, Rejection};
use crate::coalesce::{CoalesceStats, Coalescer, Join};
use crate::fault::{FaultConfig, FaultCounters, FaultKind, FaultPlan, FaultStats};
use crate::gather::{gather, Answer, Fanout, ShardHealth};
use crate::ingest::{IngestOffer, IngestQueue, IngestStats};
use crate::replica::ReplicaSet;
use crate::router::{partition_entries, request_targets, route_query_text, PartitionKey};
use crate::swap::{ShardSnapshot, ShardTag};
use crate::Swap;
use pqsda::{CacheStats, EngineBuildOptions, PqsDa};
use pqsda_baselines::{Backend, SuggestRequest};
use pqsda_parallel::{CancelToken, Deadline, TaskPanic};
use pqsda_querylog::{text, LogEntry, QueryId, QueryLog, UserId};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::fault::BreakerState;

/// Configuration of a sharded server.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// How entries are partitioned.
    pub key: PartitionKey,
    /// The per-shard engine build recipe.
    pub build: EngineBuildOptions,
    /// Ingestion-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Most entries one [`ShardedPqsDa::apply_deltas`] call drains from
    /// the queue (0 = unlimited). The remainder stays queued for the next
    /// cycle, bounding per-swap rebuild work.
    pub max_delta_entries: usize,
    /// Fault-tolerance knobs (replicas, deadlines, hedging, breakers).
    /// The default disables all of them.
    pub fault: FaultConfig,
    /// Coalesce duplicate in-flight requests: the first arrival computes,
    /// duplicates wait and reuse its reply verbatim (off by default).
    pub coalesce: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            key: PartitionKey::default(),
            build: EngineBuildOptions::default(),
            queue_capacity: 4096,
            max_delta_entries: 0,
            fault: FaultConfig::default(),
            coalesce: false,
        }
    }
}

/// How much of the responsible shard set answered a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Shards whose candidates made it into the merge.
    pub answered: usize,
    /// Shards the request was responsible for consulting.
    pub consulted: usize,
}

impl Coverage {
    /// Full coverage over `n` shards.
    pub fn full(n: usize) -> Self {
        Coverage {
            answered: n,
            consulted: n,
        }
    }

    /// Answered fraction (1.0 when nothing needed consulting).
    pub fn fraction(&self) -> f64 {
        if self.consulted == 0 {
            1.0
        } else {
            self.answered as f64 / self.consulted as f64
        }
    }

    /// Whether any responsible shard is missing from the merge.
    pub fn is_degraded(&self) -> bool {
        self.answered < self.consulted
    }
}

/// One answered request: the merged suggestions (global ids, with the
/// relevance score each earned in its shard) and the exact snapshot tags
/// that produced them.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// Merged top-k, rank order, global [`QueryId`]s.
    pub suggestions: Vec<(QueryId, f64)>,
    /// The tag of every shard snapshot that **answered**, in shard order.
    /// Readers use these to verify generation consistency — see the soak
    /// test — and, when degraded, to know exactly which shards the merge
    /// covers.
    pub tags: Vec<ShardTag>,
    /// Shards answered vs. consulted; `coverage.is_degraded()` means some
    /// responsible shard was dropped (fault, deadline, open breaker).
    pub coverage: Coverage,
}

impl ServeReply {
    /// The suggestion ranking without scores.
    pub fn ranked(&self) -> Vec<QueryId> {
        self.suggestions.iter().map(|&(q, _)| q).collect()
    }

    /// The rank-stratified merge of the shards that answered (in shard
    /// order) out of the `consulted` ones.
    pub(crate) fn merged(answers: Vec<Answer>, consulted: usize, k: usize) -> Self {
        let (tags, lists): (Vec<ShardTag>, Vec<_>) = answers.into_iter().unzip();
        ServeReply {
            suggestions: merge_rank_stratified(&lists, k),
            coverage: Coverage {
                answered: tags.len(),
                consulted,
            },
            tags,
        }
    }

    /// A reply with no suggestions and nothing consulted.
    pub fn empty() -> Self {
        ServeReply {
            suggestions: Vec::new(),
            tags: Vec::new(),
            coverage: Coverage::default(),
        }
    }
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Shard count.
    pub shards: usize,
    /// Current generation of each shard.
    pub generations: Vec<u64>,
    /// Snapshot swaps performed since construction (across all shards).
    pub total_swaps: u64,
    /// Ingestion-queue counters (accepted/rejected/drained; depth derives).
    pub ingest: IngestStats,
    /// Expansion-memo counters aggregated over all live shard snapshots.
    pub cache: CacheStats,
    /// Entries left queued by rate-limited `apply_deltas` calls
    /// (cumulative over calls; a deferred entry drains in a later cycle).
    pub deferred: u64,
    /// Fault-tolerance counters (probes, panics, hedges, rollbacks, …).
    pub fault: FaultStats,
    /// Current circuit-breaker state of each shard.
    pub breakers: Vec<BreakerState>,
    /// Suggest-path admission counters (admitted / shed / in flight).
    pub admission: AdmissionStats,
    /// Request-coalescing counters (leaders / coalesced / fallbacks).
    pub coalesce: CoalesceStats,
}

/// How one deadline-aware request resolved: a reply, or an explicit
/// admission-control rejection. Shed requests are never silent — the
/// [`Rejection`] carries the projection that justified the shed.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// The request was served (possibly degraded; see the reply's
    /// coverage).
    Served(ServeReply),
    /// The request was shed at the admission gate before any shard was
    /// probed.
    Rejected(Rejection),
}

impl ServeOutcome {
    /// The reply, if the request was served.
    pub fn reply(&self) -> Option<&ServeReply> {
        match self {
            ServeOutcome::Served(r) => Some(r),
            ServeOutcome::Rejected(_) => None,
        }
    }

    /// Whether the request was shed.
    pub fn is_rejected(&self) -> bool {
        matches!(self, ServeOutcome::Rejected(_))
    }
}

/// What one [`ShardedPqsDa::apply_deltas`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapReport {
    /// Entries drained from the ingestion queue.
    pub drained: usize,
    /// Shards that swapped in a new snapshot (those whose partition got
    /// deltas), whether the snapshot was produced incrementally or cold.
    pub rebuilt: Vec<usize>,
    /// The subset of `rebuilt` whose snapshot was produced by the
    /// incremental delta path ([`PqsDa::apply_delta`]) instead of a cold
    /// `build_from_entries` over the whole partition. A chronological
    /// delta always takes this path; a late-arriving batch (older than
    /// the shard's newest record) falls back to the cold rebuild.
    pub incremental: Vec<usize>,
    /// Shards whose new snapshot failed pre-publish digest validation and
    /// kept their prior generation; the batch is parked and retried next
    /// cycle.
    pub rolled_back: Vec<usize>,
    /// Entries left in the queue by the `max_delta_entries` rate limit.
    pub deferred: usize,
    /// Parked entries from earlier rolled-back swaps retried this cycle.
    pub retried: usize,
    /// The entries drained from the queue this cycle, in drain order —
    /// exactly the batch a snapshotter must append to its delta WAL
    /// (parked retries are excluded: they were already logged on their
    /// first drain).
    pub drained_entries: Vec<LogEntry>,
}

/// A shard's cold-rebuild ground truth: the entries its current snapshot
/// was built from.
///
/// Servers assembled from persisted snapshots start `Lazy` — the base is
/// derivable on demand by partitioning a prefix of the router log, so the
/// cold-start path never pays for materializing it. It stays lazy across
/// *incremental* delta applies (the prefix just advances to the grown
/// router's length) and is materialized only if a full cold rebuild is
/// actually needed.
enum ShardBase {
    Ready(Vec<LogEntry>),
    /// Base = this shard's partition of the first `router_prefix` router
    /// records. Valid because router growth is append-only and happens
    /// before any shard update.
    Lazy {
        router_prefix: usize,
    },
}

struct Shard {
    replicas: ReplicaSet,
    /// The raw entries the *current* snapshot was built from. Writer-only
    /// (guarded by the rebuild lock); readers never touch it.
    base: parking_lot::Mutex<ShardBase>,
    /// Delta entries whose swap was rolled back, parked for retry.
    /// Writer-only.
    pending: parking_lot::Mutex<Vec<LogEntry>>,
    health: ShardHealth,
}

/// N independent PQS-DA shards behind one request-level facade.
pub struct ShardedPqsDa {
    config: ServeConfig,
    /// The global id-space log: interns every entry ever built or
    /// ingested, so request/response ids outlive shard rebuilds. Swapped
    /// (grow-only) *before* the shards it feeds.
    router: Swap<QueryLog>,
    shards: Vec<Shard>,
    queue: IngestQueue,
    /// Every tag ever published, registered before its snapshot goes
    /// live — the ground truth the soak test checks responses against.
    registered: parking_lot::Mutex<Vec<ShardTag>>,
    /// Serializes writers (`apply_deltas`).
    rebuild_lock: parking_lot::Mutex<()>,
    total_swaps: AtomicU64,
    /// Active fault-injection schedule (tests/chaos only; `None` in
    /// production).
    fault_plan: parking_lot::RwLock<Option<Arc<FaultPlan>>>,
    /// Request counter: keys round-robin primary selection and the fault
    /// plan's per-request schedules.
    requests: AtomicU64,
    /// Snapshot publication attempts (keys the corrupt-swap schedule).
    swap_attempts: AtomicU64,
    counters: FaultCounters,
    deferred_total: AtomicU64,
    /// Deadline-aware admission gate in front of the scatter-gather.
    gate: AdmissionGate,
    /// Singleflight table for duplicate in-flight requests (used only
    /// when `config.coalesce` is set).
    coalescer: Coalescer<CoalesceKey, ServeReply>,
}

/// The identity of a request for coalescing purposes: every field that
/// can influence the reply — including the ranking [`Backend`], so an
/// A/B pair differing only in backend never shares a leader reply. Two
/// requests with equal keys are duplicates by construction, so sharing
/// the leader's reply is exact, not approximate.
type CoalesceKey = (
    QueryId,
    Vec<QueryId>,
    Vec<u64>,
    u64,
    Option<UserId>,
    usize,
    Backend,
);

fn coalesce_key(req: &SuggestRequest) -> CoalesceKey {
    (
        req.query,
        req.context.clone(),
        req.context_times.clone(),
        req.query_time,
        req.user,
        req.k,
        req.backend,
    )
}

impl ShardedPqsDa {
    /// Partitions `entries` and builds every shard with `config.build`.
    pub fn build(entries: &[LogEntry], config: ServeConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = partition_entries(entries, config.key, config.shards)
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                let engine = PqsDa::build_from_entries(&part, &config.build);
                (ShardSnapshot::stamp(engine, s, 0), ShardBase::Ready(part))
            })
            .collect();
        Self::assemble(QueryLog::from_entries(entries), shards, config)
    }

    /// Reassembles a server from persisted shard snapshots plus the
    /// saved router log — the snapshot-store cold-start path. The
    /// engines are used exactly as loaded (bit-identical to what was
    /// saved; generations continue from the stamped tags). Each shard's
    /// cold-rebuild base starts [`ShardBase::Lazy`]: it is derivable by
    /// partitioning the router's entries under the configured key —
    /// precisely how [`ShardedPqsDa::build`] + `apply_deltas` accumulated
    /// it — so nothing is materialized here and cold start stays O(1) in
    /// the log size beyond the mmap'd sections themselves.
    ///
    /// # Panics
    /// Panics when the snapshot count differs from `config.shards` or a
    /// snapshot's tag names a different shard than its position.
    pub fn from_snapshots(
        router: QueryLog,
        snapshots: Vec<ShardSnapshot>,
        config: ServeConfig,
    ) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert_eq!(snapshots.len(), config.shards, "snapshot count != shards");
        let router_prefix = router.records().len();
        let shards = snapshots
            .into_iter()
            .enumerate()
            .map(|(s, snap)| {
                assert_eq!(snap.tag.shard, s, "snapshot shard number mismatch");
                (snap, ShardBase::Lazy { router_prefix })
            })
            .collect();
        Self::assemble(router, shards, config)
    }

    /// A server over `shards` (each snapshot with its cold-rebuild
    /// base), every tag registered, every counter zero.
    fn assemble(
        router: QueryLog,
        shards: Vec<(ShardSnapshot, ShardBase)>,
        config: ServeConfig,
    ) -> Self {
        let registered = shards.iter().map(|(snap, _)| snap.tag).collect();
        let shards = shards
            .into_iter()
            .map(|(snap, base)| Shard {
                replicas: ReplicaSet::new(Arc::new(snap), config.fault.replicas),
                base: parking_lot::Mutex::new(base),
                pending: parking_lot::Mutex::new(Vec::new()),
                health: ShardHealth::new(&config.fault),
            })
            .collect();
        ShardedPqsDa {
            queue: IngestQueue::new(config.queue_capacity),
            config,
            router: Swap::new(Arc::new(router)),
            shards,
            registered: parking_lot::Mutex::new(registered),
            rebuild_lock: parking_lot::Mutex::new(()),
            total_swaps: AtomicU64::new(0),
            fault_plan: parking_lot::RwLock::new(None),
            requests: AtomicU64::new(0),
            swap_attempts: AtomicU64::new(0),
            counters: FaultCounters::default(),
            deferred_total: AtomicU64::new(0),
            gate: AdmissionGate::new(),
            coalescer: Coalescer::new(),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Installs (or clears) a deterministic fault-injection schedule.
    /// Probes and swaps consult it from then on; `None` restores healthy
    /// operation.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write() = plan.map(Arc::new);
    }

    /// The current global id-space log (for resolving suggestion text).
    pub fn router_log(&self) -> Arc<QueryLog> {
        self.router.load()
    }

    /// Takes the writer lock for an external consistent cut (snapshot
    /// save): while the guard lives no `apply_deltas` can run, so the
    /// router and every shard snapshot describe one generation vector.
    pub fn writer_cut(&self) -> impl Drop + '_ {
        self.rebuild_lock.lock()
    }

    /// The current snapshot of shard `s` (the writer's consistent view).
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    pub fn shard_snapshot(&self, s: usize) -> Arc<ShardSnapshot> {
        self.shards[s].replicas.load(0)
    }

    /// The tag of every shard's *current* snapshot, in shard order.
    pub fn shard_tags(&self) -> Vec<ShardTag> {
        self.shards
            .iter()
            .map(|s| s.replicas.current_tag())
            .collect()
    }

    /// Every tag ever published (including superseded generations).
    /// A response's tags must all appear here — the torn-read invariant.
    pub fn registered_tags(&self) -> Vec<ShardTag> {
        self.registered.lock().clone()
    }

    /// Serves one request: scatter to the responsible shard(s), gather
    /// scored candidates, merge rank-stratified. With fault tolerance
    /// configured (or a fault plan installed) the fan-out runs on
    /// cancellable probe tasks with hedging/deadline/breaker semantics;
    /// otherwise it runs serially in the caller (panic isolation applies
    /// either way). A reply never errors: faulted shards are dropped and
    /// reported through [`ServeReply::coverage`].
    ///
    /// Deadline-less requests are never shed, so this always serves; the
    /// deadline-aware front door is [`ShardedPqsDa::suggest_with_deadline`].
    pub fn suggest(&self, req: &SuggestRequest) -> ServeReply {
        match self.suggest_with_deadline(req, None) {
            ServeOutcome::Served(reply) => reply,
            ServeOutcome::Rejected(_) => {
                unreachable!("admission never sheds a deadline-less request")
            }
        }
    }

    /// The deadline-aware front door: admission control first (a request
    /// whose projected wait exceeds its deadline is shed with an explicit
    /// [`ServeOutcome::Rejected`] before any shard is probed), then —
    /// when `config.coalesce` is on — singleflight coalescing of
    /// duplicate in-flight requests, then the scatter-gather of
    /// [`ShardedPqsDa::suggest`] with the deadline bounding the gather.
    /// A served reply is bit-identical to what a dedicated healthy server
    /// would return for the same request whenever coverage is full.
    pub fn suggest_with_deadline(
        &self,
        req: &SuggestRequest,
        deadline: Option<Deadline>,
    ) -> ServeOutcome {
        let permit = match self.gate.admit(deadline.as_ref()) {
            Ok(p) => p,
            Err(rejection) => return ServeOutcome::Rejected(rejection),
        };
        let reply = if self.config.coalesce {
            match self.coalescer.join(coalesce_key(req)) {
                Join::Leader(token) => {
                    // If the gather panics, `token`'s Drop abandons the
                    // flight and followers fall back to their own gather.
                    let reply = self.suggest_core(req, deadline.as_ref());
                    token.publish(reply.clone());
                    reply
                }
                Join::Coalesced(reply) => {
                    // A follower reusing the leader's reply is a cache
                    // hit: classify it so the admission gate's service
                    // estimate keeps the two populations apart.
                    permit.mark_cached();
                    reply
                }
                Join::Fallback => self.suggest_core(req, deadline.as_ref()),
            }
        } else {
            self.suggest_core(req, deadline.as_ref())
        };
        drop(permit); // releases the in-flight slot, records service time
        ServeOutcome::Served(reply)
    }

    /// The scatter-gather behind both front doors.
    fn suggest_core(&self, req: &SuggestRequest, deadline: Option<&Deadline>) -> ServeReply {
        let request = self.requests.fetch_add(1, Ordering::Relaxed);
        let router = self.router.load();
        if req.query.index() >= router.num_queries() || req.k == 0 {
            return ServeReply::empty();
        }
        let input_text = router.query_text(req.query).to_owned();
        let targets = request_targets(self.config.key, &input_text, self.config.shards);
        // A per-request deadline must be enforced even when no fault
        // tolerance is configured, so it activates the task-based path.
        let reply = if self.fault_path_active() || deadline.is_some() {
            self.suggest_ft(request, &router, &input_text, req, &targets, deadline)
        } else {
            self.gather_serial(&router, &input_text, req, &targets)
        };
        if reply.coverage.is_degraded() {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }

    /// Serves `req` against exactly `targets` (shard indices), serially
    /// and without fault injection — the reference merge for a given
    /// shard subset. A degraded reply over answered shards S must equal
    /// `suggest_on(req, S)`; the chaos tests pin that.
    pub fn suggest_on(&self, req: &SuggestRequest, targets: &[usize]) -> ServeReply {
        let router = self.router.load();
        if req.query.index() >= router.num_queries() || req.k == 0 {
            return ServeReply::empty();
        }
        let input_text = router.query_text(req.query).to_owned();
        self.gather_serial(&router, &input_text, req, targets)
    }

    /// Whether requests must take the task-based fault-tolerant fan-out.
    fn fault_path_active(&self) -> bool {
        let f = &self.config.fault;
        f.replicas > 1
            || f.budget_ms > 0
            || f.breaker_threshold > 0
            || f.hedge_ms > 0
            || f.hedge_percentile > 0.0
            || self.fault_plan.read().is_some()
    }

    /// Serial fan-out: one probe per target in the calling thread, each
    /// isolated by `catch_unwind` (a panicking shard is dropped from the
    /// merge, not propagated).
    fn gather_serial(
        &self,
        router: &QueryLog,
        input_text: &str,
        req: &SuggestRequest,
        targets: &[usize],
    ) -> ServeReply {
        let mut answers = Vec::with_capacity(targets.len());
        for &s in targets {
            // One load per shard: the whole per-shard computation runs
            // against this single immutable snapshot.
            let snap = self.shards[s].replicas.load(0);
            self.counters.gather.probes.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| {
                shard_probe(router, &snap, input_text, req)
            })) {
                Ok(list) => answers.push((snap.tag, list)),
                Err(_) => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ServeReply::merged(answers, targets.len(), req.k)
    }

    /// Fault-tolerant fan-out through the shared [`gather`] loop: each
    /// attempt probes one replica's snapshot on a cancellable task,
    /// consulting the fault plan first (an injected stall sleeps
    /// cooperatively, so a cancelled probe winds down in milliseconds).
    fn suggest_ft(
        &self,
        request: u64,
        router: &Arc<QueryLog>,
        input_text: &str,
        req: &SuggestRequest,
        targets: &[usize],
        deadline: Option<&Deadline>,
    ) -> ServeReply {
        let plan = self.fault_plan.read().clone();
        let fanout = Fanout::new(request, targets, req.k, &self.config.fault, deadline);
        let shard = |s: usize| {
            let shard = &self.shards[s];
            (&shard.health, shard.replicas.replicas())
        };
        let spawn = |s: usize, replica: usize| {
            let snap = self.shards[s].replicas.load(replica);
            let router = Arc::clone(router);
            let input_text = input_text.to_owned();
            let req = req.clone();
            let plan = plan.clone();
            move |token: &CancelToken| -> Result<Answer, ()> {
                if let Some(plan) = &plan {
                    match plan.probe_fault(request, s, replica) {
                        // The guard *performs* the injected stall: it is
                        // true only when the sleep was cancelled mid-stall,
                        // in which case nobody will read this output.
                        Some(FaultKind::Latency(ms)) if !token.sleep(Duration::from_millis(ms)) => {
                            return Err(());
                        }
                        // Stall survived to completion: probe normally.
                        Some(FaultKind::Latency(_)) => {}
                        Some(FaultKind::Panic) => {
                            panic!("injected fault: request {request} shard {s} replica {replica}")
                        }
                        Some(FaultKind::Error) => return Err(()),
                        None => {}
                    }
                }
                Ok((snap.tag, shard_probe(&router, &snap, &input_text, &req)))
            }
        };
        let classify = |fault: Result<(), TaskPanic>| {
            let counter = match fault {
                Ok(()) => &self.counters.errors,
                Err(_panic) => &self.counters.panics,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            true
        };
        gather(fanout, &self.counters.gather, shard, spawn, classify)
    }

    /// Serves a batch, fanning requests across the worker pool (`0` =
    /// auto). Output order matches input order and each reply is identical
    /// to a serial [`ShardedPqsDa::suggest`] call.
    pub fn suggest_many_with_threads(
        &self,
        reqs: &[SuggestRequest],
        threads: usize,
    ) -> Vec<ServeReply> {
        let threads = pqsda_parallel::effective_threads(threads, reqs.len(), 1);
        pqsda_parallel::map_indexed(reqs.len(), threads, |i| self.suggest(&reqs[i]))
    }

    /// [`ShardedPqsDa::suggest_many_with_threads`] with automatic threads.
    pub fn suggest_many(&self, reqs: &[SuggestRequest]) -> Vec<ServeReply> {
        self.suggest_many_with_threads(reqs, 0)
    }

    /// Offers one new log entry to the ingestion queue (non-blocking;
    /// `false` = backpressure rejection). The entry takes effect at the
    /// next [`ShardedPqsDa::apply_deltas`].
    pub fn ingest(&self, entry: LogEntry) -> bool {
        self.queue.offer(entry)
    }

    /// Deadline-aware ingestion: sheds the entry with an explicit
    /// [`IngestOffer::RejectedDeadline`] when the queue's projected wait
    /// (depth × measured drain cost) exceeds the deadline's remaining
    /// budget. Never blocks, never drops silently.
    pub fn ingest_with_deadline(
        &self,
        entry: LogEntry,
        deadline: Option<&Deadline>,
    ) -> IngestOffer {
        self.queue.offer_with_deadline(entry, deadline)
    }

    /// The writer step: drains the queue (at most
    /// `config.max_delta_entries` entries when set), extends the router
    /// id space, updates the shards whose partitions received deltas and
    /// swaps the new snapshots in. Readers are never blocked — they keep
    /// answering from the old `Arc`s until the pointer store, and from
    /// the new ones after. Safe to call from any thread; writers
    /// serialize.
    ///
    /// Each touched shard first tries the **incremental** path: the live
    /// snapshot's [`PqsDa::apply_delta`] threads the batch through every
    /// layer as a delta (log append, scoped CF-IQF reweight, warm-started
    /// UPM retrain, scoped expansion-memo invalidation), which is
    /// equivalent to — and far cheaper than — rebuilding the partition
    /// from scratch. When the delta violates the chronological contract
    /// (an entry older than the shard's newest record) the shard falls
    /// back to a full cold rebuild; either way the swap protocol below is
    /// identical, so readers cannot tell the paths apart.
    ///
    /// Before publishing, each snapshot passes the **validation gate**
    /// ([`ShardSnapshot::verify`]): its content digests are recomputed
    /// and checked against the stamped tag. On mismatch the swap rolls
    /// back — the shard keeps its prior generation, the batch parks in a
    /// retry buffer drained by the next call, and the rollback is counted
    /// in the report and stats. Readers never observe a corrupt
    /// publication.
    pub fn apply_deltas(&self) -> SwapReport {
        let _writer = self.rebuild_lock.lock();
        let cycle_start = Instant::now();
        let (deltas, deferred) = self.queue.drain_batch(self.config.max_delta_entries);
        if deferred > 0 {
            self.deferred_total
                .fetch_add(deferred as u64, Ordering::Relaxed);
        }
        let any_pending = self.shards.iter().any(|s| !s.pending.lock().is_empty());
        if deltas.is_empty() && !any_pending {
            return SwapReport {
                deferred,
                ..SwapReport::default()
            };
        }

        // Router first: its vocabulary must cover every shard's before a
        // rebuilt shard goes live (response translation relies on it).
        // Growth is append-only, so existing global ids stay valid.
        // Parked (rolled-back) entries were interned on their first
        // attempt and need no re-growth.
        if !deltas.is_empty() {
            let mut grown = (*self.router.load()).clone();
            for e in &deltas {
                grown.push_entry(e);
            }
            self.router.store(Arc::new(grown));
        }

        let plan = self.fault_plan.read().clone();
        let parts = partition_entries(&deltas, self.config.key, self.config.shards);
        let mut report = SwapReport {
            drained: deltas.len(),
            drained_entries: deltas,
            ..SwapReport::default()
        };
        report.deferred = deferred;
        for (s, delta) in parts.into_iter().enumerate() {
            let shard = &self.shards[s];
            let mut batch = std::mem::take(&mut *shard.pending.lock());
            report.retried += batch.len();
            batch.extend(delta);
            if batch.is_empty() {
                continue;
            }
            let previous = shard.replicas.load(0);
            let warm = previous.engine.apply_delta(&batch, &self.config.build);
            let was_warm = warm.is_some();
            let engine = match warm {
                Some((engine, _delta_report)) => engine,
                // Full off-line rebuild of this shard's world (the engine
                // build sorts by timestamp, so late-arriving old entries
                // land in their chronological place). The base list is
                // not extended yet — a rollback must leave it untouched.
                None => {
                    let entries: Vec<LogEntry> = {
                        let mut base = shard.base.lock();
                        if let ShardBase::Lazy { router_prefix } = *base {
                            // First cold rebuild since a snapshot load:
                            // materialize this shard's partition of the
                            // router prefix the snapshot covered.
                            let router = self.router.load();
                            let mut all = router.entries();
                            all.truncate(router_prefix);
                            let part = partition_entries(&all, self.config.key, self.config.shards)
                                .swap_remove(s);
                            *base = ShardBase::Ready(part);
                        }
                        let ShardBase::Ready(base_entries) = &*base else {
                            unreachable!("materialized above");
                        };
                        base_entries.iter().chain(batch.iter()).cloned().collect()
                    };
                    PqsDa::build_from_entries(&entries, &self.config.build)
                }
            };
            let generation = previous.tag.generation + 1;
            let mut snap = ShardSnapshot::stamp(engine, s, generation);
            let attempt = self.swap_attempts.fetch_add(1, Ordering::Relaxed);
            if let Some(p) = &plan {
                if p.corrupts_swap(attempt) {
                    FaultPlan::corrupt_tag(&mut snap.tag);
                }
            }
            if !snap.verify() {
                // Validation gate: the snapshot does not match its tag.
                // Keep the prior generation live, park the batch for the
                // next cycle.
                self.counters.rollbacks.fetch_add(1, Ordering::Relaxed);
                shard.pending.lock().extend(batch);
                report.rolled_back.push(s);
                continue;
            }
            // The base entry list stays current for any *future* delta
            // that arrives out of order (cold-rebuild ground truth). A
            // still-lazy base advances its router prefix instead: the
            // router already interned this batch (and any previously
            // parked entries for this shard), so this shard's partition
            // of the longer prefix is exactly the extended base.
            match &mut *shard.base.lock() {
                ShardBase::Ready(v) => v.extend(batch),
                ShardBase::Lazy { router_prefix } => {
                    *router_prefix = self.router.load().records().len();
                }
            }
            // Register the tag BEFORE publishing: a reader can never hold
            // a tag the registry hasn't seen.
            self.registered.lock().push(snap.tag);
            shard.replicas.publish(Arc::new(snap));
            self.total_swaps.fetch_add(1, Ordering::Relaxed);
            report.rebuilt.push(s);
            if was_warm {
                report.incremental.push(s);
            }
        }
        if report.drained > 0 {
            // Feed the measured per-entry drain cost back so deadline
            // offers project with the host's actual speed.
            let per_entry_us = (cycle_start.elapsed().as_micros() / report.drained as u128)
                .min(u128::from(u64::MAX));
            self.queue.set_service_estimate_us(per_entry_us as u64);
        }
        report
    }

    /// Counters: per-shard generations, swap count, queue, cache, and
    /// fault-tolerance stats.
    pub fn stats(&self) -> ServeStats {
        let mut cache = CacheStats::default();
        let mut generations = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            let snap = s.replicas.load(0);
            generations.push(snap.tag.generation);
            let c = snap.engine.cache_stats();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            cache.selection_hits += c.selection_hits;
            cache.selection_misses += c.selection_misses;
        }
        let breaker_opens: u64 = self.shards.iter().map(|s| s.health.breaker.opens()).sum();
        ServeStats {
            shards: self.shards.len(),
            generations,
            total_swaps: self.total_swaps.load(Ordering::Relaxed),
            ingest: self.queue.stats(),
            cache,
            deferred: self.deferred_total.load(Ordering::Relaxed),
            fault: self.counters.snapshot(breaker_opens),
            breakers: self
                .shards
                .iter()
                .map(|s| s.health.breaker.state())
                .collect(),
            admission: self.gate.stats(),
            coalesce: self.coalescer.stats(),
        }
    }

    /// Resolves a global id to its text (current router generation).
    pub fn query_text(&self, q: QueryId) -> Option<String> {
        let router = self.router.load();
        (q.index() < router.num_queries()).then(|| router.query_text(q).to_owned())
    }

    /// Looks a query up in the global id space.
    pub fn find_query(&self, raw: &str) -> Option<QueryId> {
        self.router.load().find_query(raw)
    }

    /// The home shard of `raw` under the configured key (Query key only
    /// routes by text; under the User key data placement is per-user).
    pub fn home_shard_of_query(&self, raw: &str) -> usize {
        route_query_text(&text::normalize(raw), self.config.shards)
    }
}

/// Anything that can answer a deadline-aware suggest request with the
/// serving contract of [`ShardedPqsDa::suggest_with_deadline`]: an
/// explicit [`ServeOutcome`] — served (possibly degraded, with honest
/// coverage) or rejected — never a hang, never a silent drop.
///
/// Implemented by the in-process [`ShardedPqsDa`] and by the
/// socket-backed router in `pqsda-net`, so load generators and smoke
/// harnesses drive either deployment shape through one interface.
pub trait SuggestService: Sync {
    /// Serves one request under an optional deadline.
    fn suggest_with_deadline(
        &self,
        req: &SuggestRequest,
        deadline: Option<Deadline>,
    ) -> ServeOutcome;
}

impl SuggestService for ShardedPqsDa {
    fn suggest_with_deadline(
        &self,
        req: &SuggestRequest,
        deadline: Option<Deadline>,
    ) -> ServeOutcome {
        ShardedPqsDa::suggest_with_deadline(self, req, deadline)
    }
}

/// One shard's share of a request: translate the query and context into
/// the shard's id space, ask the snapshot's engine, translate the
/// candidates back to global ids. Empty when the shard never saw the
/// query.
///
/// Public because the wire-protocol shard server (`pqsda-net`) must run
/// the *identical* translation so a full-coverage socket reply stays
/// bit-identical to the in-process gather.
pub fn shard_probe(
    router: &QueryLog,
    snap: &ShardSnapshot,
    input_text: &str,
    req: &SuggestRequest,
) -> Vec<(QueryId, f64)> {
    let shard_log = snap.engine.log();
    let Some(local_query) = shard_log.find_query(input_text) else {
        return Vec::new(); // this shard never saw the query
    };
    // Translate the context into the shard's id space, dropping context
    // queries the shard has never seen (the compact expansion drops
    // unknown seeds the same way).
    let mut context = Vec::with_capacity(req.context.len());
    let mut context_times = Vec::with_capacity(req.context.len());
    for (&c, &t) in req.context.iter().zip(&req.context_times) {
        if c.index() >= router.num_queries() {
            continue;
        }
        if let Some(lc) = shard_log.find_query(router.query_text(c)) {
            context.push(lc);
            context_times.push(t);
        }
    }
    let local_req = SuggestRequest {
        query: local_query,
        context,
        context_times,
        query_time: req.query_time,
        user: req.user,
        k: req.k,
        backend: req.backend,
    };
    let scored = snap.engine.suggest_scored(&local_req);
    scored
        .into_iter()
        .filter_map(|(q, score)| {
            // Shard vocabularies are subsets of the router's (the router
            // swaps first on ingest), so this lookup only filters
            // pathological races out.
            router
                .find_query(shard_log.query_text(q))
                .map(|g| (g, score))
        })
        .collect()
}

/// Rank-stratified, score-ordered merge of per-shard candidate lists.
///
/// Stratum `r` holds every list's rank-`r` candidate; within a stratum
/// candidates order by `(score desc, global id asc)`; duplicates keep
/// their first (highest-stratum) occurrence. Stops at `k`. With a single
/// list this is the identity (already ≤ k and duplicate-free).
///
/// Public so the socket-backed router in `pqsda-net` merges remote
/// candidate lists with the exact function the in-process gather uses —
/// the bit-identity contract depends on sharing this code, not
/// reimplementing it.
pub fn merge_rank_stratified(lists: &[Vec<(QueryId, f64)>], k: usize) -> Vec<(QueryId, f64)> {
    let max_len = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    let mut seen: HashSet<QueryId> = HashSet::new();
    'strata: for r in 0..max_len {
        let mut stratum: Vec<(QueryId, f64)> =
            lists.iter().filter_map(|l| l.get(r)).copied().collect();
        stratum.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("relevance scores are finite")
                .then(a.0.cmp(&b.0))
        });
        for (q, score) in stratum {
            if seen.insert(q) {
                out.push((q, score));
                if out.len() == k {
                    break 'strata;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_querylog::UserId;

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    #[test]
    fn coalesce_key_separates_backends() {
        // An A/B pair differing only in backend must never share a leader
        // reply; everything else equal, keys must still collide so true
        // duplicates do coalesce.
        let base = SuggestRequest::simple(q(3), 5).for_user(UserId(7));
        assert_eq!(coalesce_key(&base), coalesce_key(&base.clone()));
        for b in Backend::ALL {
            for other in Backend::ALL {
                let kb = coalesce_key(&base.clone().with_backend(b));
                let ko = coalesce_key(&base.clone().with_backend(other));
                assert_eq!(kb == ko, b == other, "{b:?} vs {other:?}");
            }
        }
    }

    #[test]
    fn merge_single_list_is_identity() {
        let list = vec![(q(3), 0.9), (q(1), 0.5), (q(7), 0.4)];
        let lists = std::slice::from_ref(&list);
        assert_eq!(merge_rank_stratified(lists, 5), list);
        assert_eq!(merge_rank_stratified(lists, 2), list[..2].to_vec());
    }

    #[test]
    fn merge_orders_within_stratum_by_score_then_id() {
        let a = vec![(q(1), 0.5), (q(2), 0.4)];
        let b = vec![(q(3), 0.9), (q(4), 0.1)];
        let merged = merge_rank_stratified(&[a, b], 10);
        // Stratum 0: q3 (0.9) before q1 (0.5); stratum 1: q2 before q4.
        assert_eq!(
            merged,
            vec![(q(3), 0.9), (q(1), 0.5), (q(2), 0.4), (q(4), 0.1)]
        );
    }

    #[test]
    fn merge_dedups_keeping_first_stratum() {
        let a = vec![(q(1), 0.8), (q(2), 0.6)];
        let b = vec![(q(2), 0.7), (q(1), 0.3)];
        let merged = merge_rank_stratified(&[a, b], 10);
        assert_eq!(merged, vec![(q(1), 0.8), (q(2), 0.7)]);
    }

    #[test]
    fn merge_breaks_score_ties_toward_smaller_id() {
        let a = vec![(q(9), 0.5)];
        let b = vec![(q(2), 0.5)];
        let merged = merge_rank_stratified(&[a, b], 10);
        assert_eq!(merged, vec![(q(2), 0.5), (q(9), 0.5)]);
    }

    #[test]
    fn ranked_reflects_merge_tie_breaking() {
        // Two shards; a score tie in stratum 0 breaks toward the smaller
        // global id, and the duplicate in stratum 1 keeps its better
        // score while holding one rank slot.
        let a = vec![(q(9), 0.5), (q(4), 0.2)];
        let b = vec![(q(2), 0.5), (q(4), 0.9)];
        let merged = merge_rank_stratified(&[a, b], 10);
        assert_eq!(merged, vec![(q(2), 0.5), (q(9), 0.5), (q(4), 0.9)]);
        let reply = ServeReply {
            suggestions: merged,
            tags: Vec::new(),
            coverage: Coverage::full(2),
        };
        assert_eq!(reply.ranked(), vec![q(2), q(9), q(4)]);
        assert!(!reply.coverage.is_degraded());
        assert_eq!(reply.coverage.fraction(), 1.0);
    }

    fn tiny_entries() -> Vec<LogEntry> {
        let mut entries = Vec::new();
        for rep in 0..4u64 {
            let base = rep * 50_000;
            for (u, qtext, url, dt) in [
                (0u32, "sun", "java.com", 0u64),
                (0, "sun java", "java.com", 30),
                (0, "java jdk", "jdk.com", 60),
                (1, "sun", "solar.org", 1000),
                (1, "sun solar energy", "solar.org", 1030),
                (1, "solar panels", "panels.com", 1060),
                (2, "sun java", "java.com", 2000),
            ] {
                entries.push(LogEntry::new(UserId(u), qtext, Some(url), base + dt));
            }
        }
        entries
    }

    #[test]
    fn end_to_end_two_shards_cover_both_facets() {
        // A tiny world; user key with 2 shards: users split somehow, and
        // an anonymous request must still gather candidates from every
        // shard that knows the query.
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 2,
                key: PartitionKey::User,
                ..ServeConfig::default()
            },
        );
        let sun = server.find_query("sun").unwrap();
        let reply = server.suggest(&SuggestRequest::simple(sun, 4));
        assert!(!reply.suggestions.is_empty());
        assert_eq!(reply.tags.len(), 2, "user key consults every shard");
        assert_eq!(reply.coverage, Coverage::full(2));
        // All returned ids live in the router space.
        for (qid, _) in &reply.suggestions {
            assert!(server.query_text(*qid).is_some());
        }
        // Batch serving matches serial.
        let reqs = vec![SuggestRequest::simple(sun, 4); 8];
        for r in server.suggest_many_with_threads(&reqs, 4) {
            assert_eq!(r.ranked(), reply.ranked());
        }
        // suggest_on over all shards is the same merge.
        let subset = server.suggest_on(&SuggestRequest::simple(sun, 4), &[0, 1]);
        assert_eq!(subset.suggestions, reply.suggestions);
    }

    #[test]
    fn ingest_then_apply_deltas_swaps_only_touched_shards() {
        let entries: Vec<LogEntry> = (0..30)
            .map(|i| {
                LogEntry::new(
                    UserId(i % 5),
                    format!("query {}", i % 7),
                    Some("u.com"),
                    u64::from(i) * 100,
                )
            })
            .collect();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 4,
                key: PartitionKey::User,
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.stats().generations, vec![0, 0, 0, 0]);
        assert_eq!(server.apply_deltas(), SwapReport::default());

        // One new user's entries → exactly one shard rebuilds.
        let new_user = UserId(77);
        assert!(server.ingest(LogEntry::new(new_user, "brand new query", None, 9_000)));
        assert!(server.ingest(LogEntry::new(new_user, "query 1", Some("u.com"), 9_100)));
        let report = server.apply_deltas();
        assert_eq!(report.drained, 2);
        assert_eq!(report.rebuilt, vec![crate::router::route_user(new_user, 4)]);
        // The batch is chronological, so the swap took the delta path.
        assert_eq!(report.incremental, report.rebuilt);
        assert!(report.rolled_back.is_empty());
        let stats = server.stats();
        assert_eq!(stats.total_swaps, 1);
        assert_eq!(stats.generations.iter().sum::<u64>(), 1);
        assert_eq!(stats.ingest.depth(), 0);
        assert_eq!(stats.fault.rollbacks, 0);

        // The ingested query is now servable end to end.
        let nq = server.find_query("brand new query").unwrap();
        let reply = server.suggest(&SuggestRequest::simple(nq, 3).for_user(new_user));
        assert_eq!(reply.tags.len(), 4);
        // Every consulted tag is registered (torn-read invariant).
        let registered = server.registered_tags();
        for t in &reply.tags {
            assert!(registered.contains(t), "unregistered tag {t:?}");
        }
    }

    #[test]
    fn rate_limited_apply_deltas_defers_and_carries_the_remainder() {
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 2,
                key: PartitionKey::User,
                max_delta_entries: 3,
                ..ServeConfig::default()
            },
        );
        for i in 0..8u64 {
            assert!(server.ingest(LogEntry::new(
                UserId(9),
                format!("rate limited {i}"),
                None,
                1_000_000 + i,
            )));
        }
        let r1 = server.apply_deltas();
        assert_eq!((r1.drained, r1.deferred), (3, 5));
        let r2 = server.apply_deltas();
        assert_eq!((r2.drained, r2.deferred), (3, 2));
        let r3 = server.apply_deltas();
        assert_eq!((r3.drained, r3.deferred), (2, 0));
        let stats = server.stats();
        assert_eq!(stats.deferred, 7, "cumulative deferrals");
        assert_eq!(stats.ingest.depth(), 0);
        assert_eq!(stats.total_swaps, 3);
        // Every rate-limited batch eventually landed.
        assert!(server.find_query("rate limited 7").is_some());
    }

    #[test]
    fn corrupt_swap_rolls_back_then_retries_cleanly() {
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 1,
                key: PartitionKey::User,
                ..ServeConfig::default()
            },
        );
        server.set_fault_plan(Some(FaultPlan::new().with_corrupt_swap(0)));
        let registered_before = server.registered_tags().len();
        assert!(server.ingest(LogEntry::new(UserId(5), "poisoned swap", None, 900_000)));
        assert!(server.ingest(LogEntry::new(UserId(5), "sun", None, 900_100)));
        let report = server.apply_deltas();
        assert_eq!(report.drained, 2);
        assert_eq!(report.rolled_back, vec![0]);
        assert!(report.rebuilt.is_empty());
        assert_eq!(report.retried, 0);
        let stats = server.stats();
        assert_eq!(stats.generations, vec![0], "generation unchanged");
        assert_eq!(stats.total_swaps, 0);
        assert_eq!(stats.fault.rollbacks, 1);
        // The corrupt tag was never registered or published.
        assert_eq!(server.registered_tags().len(), registered_before);
        // Clearing the plan lets the parked batch retry and publish.
        server.set_fault_plan(None);
        let retry = server.apply_deltas();
        assert_eq!(retry.drained, 0);
        assert_eq!(retry.retried, 2);
        assert_eq!(retry.rebuilt, vec![0]);
        assert_eq!(retry.incremental, vec![0]);
        assert_eq!(server.stats().generations, vec![1]);
        // The rolled-back-then-retried entry is servable.
        let nq = server.find_query("poisoned swap").unwrap();
        let reply = server.suggest(&SuggestRequest::simple(nq, 3));
        assert!(!reply.coverage.is_degraded());
    }

    #[test]
    fn breaker_opens_after_consecutive_faults_and_recovers_via_probe() {
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 1,
                key: PartitionKey::Query,
                fault: FaultConfig {
                    breaker_threshold: 2,
                    breaker_cooldown: 2,
                    ..FaultConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        // Panics injected into the probes of requests 0 and 1 (one shard,
        // one replica → replica 0 is always primary).
        server.set_fault_plan(Some(
            FaultPlan::new()
                .with_probe_fault(0, 0, 0, FaultKind::Panic)
                .with_probe_fault(1, 0, 0, FaultKind::Panic),
        ));
        let sun = server.find_query("sun").unwrap();
        let req = SuggestRequest::simple(sun, 4);
        let healthy = server.suggest_on(&req, &[0]);

        // Requests 0 and 1 fault; the second trips the breaker.
        for _ in 0..2 {
            let r = server.suggest(&req);
            assert!(r.coverage.is_degraded());
            assert!(r.suggestions.is_empty());
        }
        assert_eq!(server.stats().breakers, vec![BreakerState::Open]);
        // Request 2 is skipped by the open breaker (cooldown 1 of 2).
        let r = server.suggest(&req);
        assert!(r.coverage.is_degraded());
        assert_eq!(server.stats().fault.breaker_skips, 1);
        // Request 3 is the half-open probe; no fault scheduled → success
        // closes the breaker and the reply is full and healthy.
        let r = server.suggest(&req);
        assert_eq!(r.coverage, Coverage::full(1));
        assert_eq!(r.suggestions, healthy.suggestions);
        let stats = server.stats();
        assert_eq!(stats.breakers, vec![BreakerState::Closed]);
        assert_eq!(stats.fault.panics, 2);
        assert_eq!(stats.fault.breaker_opens, 1);
        assert_eq!(stats.fault.degraded, 3);
        // Request 4 serves normally.
        let r = server.suggest(&req);
        assert_eq!(r.suggestions, healthy.suggestions);
    }

    #[test]
    fn hedge_rescues_a_slow_primary_replica() {
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 1,
                key: PartitionKey::Query,
                fault: FaultConfig {
                    replicas: 2,
                    hedge_ms: 2,
                    ..FaultConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        // Replica 0 of the only shard is pathologically slow; requests
        // with an even index pick it as primary (request % 2).
        server.set_fault_plan(Some(FaultPlan::new().with_slow_replica(0, 0, 200)));
        let sun = server.find_query("sun").unwrap();
        let req = SuggestRequest::simple(sun, 4);
        let healthy = server.suggest_on(&req, &[0]);
        // Request 0: slow primary, the hedge fires and the backup wins.
        let r = server.suggest(&req);
        assert_eq!(r.coverage, Coverage::full(1));
        assert_eq!(r.suggestions, healthy.suggestions);
        // Request 1: fast primary (replica 1), no hedge needed... but a
        // hedge MAY still fire on a slow machine; only the reply is
        // pinned.
        let r = server.suggest(&req);
        assert_eq!(r.suggestions, healthy.suggestions);
        let stats = server.stats();
        assert!(stats.fault.hedges >= 1, "stats: {:?}", stats.fault);
        assert!(stats.fault.hedge_wins >= 1, "stats: {:?}", stats.fault);
        assert_eq!(stats.fault.degraded, 0);
    }

    #[test]
    fn deadline_drops_a_stalled_shard_and_reports_degraded_coverage() {
        let entries = tiny_entries();
        let server = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards: 2,
                key: PartitionKey::User,
                fault: FaultConfig {
                    budget_ms: 120,
                    ..FaultConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        // Shard 0's only replica stalls far past the request budget.
        server.set_fault_plan(Some(FaultPlan::new().with_slow_replica(0, 0, 2_000)));
        let sun = server.find_query("sun").unwrap();
        let req = SuggestRequest::simple(sun, 4);
        let start = Instant::now();
        let r = server.suggest(&req);
        assert!(
            start.elapsed() < Duration::from_millis(1_500),
            "deadline must cut the stalled probe off"
        );
        assert!(r.coverage.is_degraded());
        assert_eq!(
            r.coverage,
            Coverage {
                answered: 1,
                consulted: 2
            }
        );
        // The reply covers exactly the answering shard (tags say which).
        assert_eq!(r.tags.len(), 1);
        assert_eq!(r.tags[0].shard, 1);
        let subset = server.suggest_on(&req, &[1]);
        assert_eq!(r.suggestions, subset.suggestions);
        assert_eq!(server.stats().fault.timeouts, 1);
    }
}
