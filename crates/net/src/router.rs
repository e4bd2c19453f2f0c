//! The socket-backed scatter-gather router: [`ShardedPqsDa`]'s serving
//! contract over remote shard processes.
//!
//! Every in-process guarantee survives the hop to sockets:
//!
//! - **Bit-identity at full coverage.** The router translates its global
//!   ids to normalized query *text* (the only id space stable across
//!   processes), each shard probe runs [`pqsda_serve::shard_probe`]'s
//!   exact semantics server-side, scores travel as raw `f64` bits, and
//!   the merge is the very same [`merge_rank_stratified`] function. A
//!   full-coverage reply is therefore bit-for-bit what the in-process
//!   engine returns.
//! - **Honest degradation.** A dead, slow, partitioned or backed-off
//!   shard is dropped from the merge and reported in
//!   [`pqsda_serve::Coverage`] — never an error, never a hang: the frame
//!   carries the remaining deadline budget and socket timeouts are
//!   clamped to it.
//! - **Fault tolerance.** Per-shard breakers, round-robin primary with
//!   hedged backup probes sized by the decayed latency histogram,
//!   immediate failover on a fault — the in-process server's own gather
//!   loop ([`pqsda_serve::gather()`]), with one addition: a replica in an
//!   open backoff window fast-fails the attempt *without* recording a
//!   breaker fault (see the `backoff` module docs for why).
//! - **Writer path parity.** `apply_deltas` grows the router log first
//!   (vocabulary superset invariant), partitions the drained batch, and
//!   ships it to every replica; a replica that cannot apply it
//!   incrementally — or that drifted out of generation lockstep — is
//!   resynced by a full snapshot handoff built from the router's own
//!   entry log, which is exactly the in-process cold-rebuild base.
//! - **Live resize.** `resize` re-partitions onto a new shard set,
//!   ships images to the shards whose worlds changed, runs one catch-up
//!   delta round, and atomically swaps the topology.

use crate::client::{ClientConfig, ProbeError, RemoteReplica};
use crate::conn::NetAddr;
use crate::proto::{backend_to_wire, WireRequest};
use pqsda::PqsDa;
use pqsda_parallel::{CancelToken, Deadline, TaskPanic};
use pqsda_querylog::{LogEntry, QueryId, QueryLog};
use pqsda_serve::{
    gather, partition_entries, request_targets, AdmissionGate, AdmissionStats, Answer,
    BreakerState, Fanout, FaultConfig, GatherCounters, IngestOffer, IngestQueue, IngestStats,
    PartitionKey, ServeOutcome, ServeReply, ShardHealth, ShardTag, SuggestService, Swap,
};
use pqsda_store::engine_image;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Router configuration. Shard and replica counts are implied by the
/// address lists handed to [`NetRouter::connect`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// How entries are partitioned (must match how the shard snapshots
    /// were built).
    pub key: PartitionKey,
    /// The per-shard engine build recipe (drives router-side resync
    /// builds; must match the shard servers').
    pub build: pqsda::EngineBuildOptions,
    /// Fault-tolerance knobs. `replicas` is ignored — the per-shard
    /// address list length is authoritative.
    pub fault: FaultConfig,
    /// Ingestion-queue capacity.
    pub queue_capacity: usize,
    /// Max entries drained per `apply_deltas` (0 = unlimited).
    pub max_delta_entries: usize,
    /// Client transport knobs (timeouts, backoff).
    pub client: ClientConfig,
    /// Chunk size for snapshot handoffs.
    pub snap_chunk_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            key: PartitionKey::default(),
            build: pqsda::EngineBuildOptions::default(),
            fault: FaultConfig::default(),
            queue_capacity: 4096,
            max_delta_entries: 0,
            client: ClientConfig::default(),
            snap_chunk_bytes: 256 << 10,
        }
    }
}

/// One shard's client-side state: its replicas, breaker, latency
/// histogram, and the generation the router last saw each replica at
/// (lockstep tracking — a replica that missed a delta must resync by
/// handoff, or it would silently serve a hole).
struct NetShard {
    replicas: Vec<Arc<RemoteReplica>>,
    generations: Vec<AtomicU64>,
    health: ShardHealth,
}

impl NetShard {
    fn connect(addrs: &[NetAddr], fault: &FaultConfig, client: &ClientConfig) -> NetShard {
        assert!(!addrs.is_empty(), "a shard needs at least one replica");
        let replicas: Vec<Arc<RemoteReplica>> = addrs
            .iter()
            .map(|a| Arc::new(RemoteReplica::new(a.clone(), *client)))
            .collect();
        let generations = replicas.iter().map(|_| AtomicU64::new(0)).collect();
        NetShard {
            replicas,
            generations,
            health: ShardHealth::new(fault),
        }
    }
}

/// The replica address lists behind an atomically swappable pointer, so
/// a resize flips the serving world in one store.
struct Topology {
    shards: Vec<Arc<NetShard>>,
}

#[derive(Default)]
struct NetCounters {
    gather: GatherCounters,
    errors: AtomicU64,
    remote_errors: AtomicU64,
    backoff_skips: AtomicU64,
    degraded: AtomicU64,
}

/// Point-in-time router stats.
#[derive(Clone, Debug)]
pub struct NetStats {
    /// Shards in the current topology.
    pub shards: usize,
    /// Remote probe attempts spawned.
    pub probes: u64,
    /// Probe attempts that failed at the transport layer.
    pub errors: u64,
    /// Probe attempts answered with a typed remote error.
    pub remote_errors: u64,
    /// Shard slots dropped at the request deadline.
    pub timeouts: u64,
    /// Hedge probes fired.
    pub hedges: u64,
    /// Immediate failovers after a primary fault.
    pub failovers: u64,
    /// Requests won by the hedge/backup probe.
    pub hedge_wins: u64,
    /// Shard slots skipped by an open breaker.
    pub breaker_skips: u64,
    /// Probe attempts fast-failed inside an open backoff window (never
    /// recorded as breaker faults).
    pub backoff_skips: u64,
    /// Replies served with degraded coverage.
    pub degraded: u64,
    /// Breaker trips across all shards.
    pub breaker_opens: u64,
    /// Per-shard breaker states.
    pub breakers: Vec<BreakerState>,
    /// Last generation the router saw each shard's primary at.
    pub generations: Vec<u64>,
    /// Ingestion queue stats.
    pub ingest: IngestStats,
    /// Admission gate stats.
    pub admission: AdmissionStats,
}

/// What one `apply_deltas` cycle did, per `(shard, replica)`.
#[derive(Clone, Debug, Default)]
pub struct NetSwapReport {
    /// Entries drained from the queue this cycle.
    pub drained: usize,
    /// Entries left queued by `max_delta_entries`.
    pub deferred: usize,
    /// Replicas updated by an incremental delta.
    pub incremental: Vec<(usize, usize)>,
    /// Replicas resynced by a full snapshot handoff.
    pub handoffs: Vec<(usize, usize)>,
    /// Replicas that could not be updated at all (stale until the next
    /// cycle resyncs them).
    pub failed: Vec<(usize, usize)>,
    /// The drained entries (callers append them to their WAL).
    pub drained_entries: Vec<LogEntry>,
}

/// What a live resize did.
#[derive(Clone, Debug, Default)]
pub struct ResizeReport {
    /// Shard count before.
    pub shards_before: usize,
    /// Shard count after.
    pub shards_after: usize,
    /// Shards reused untouched (same addresses, same partition).
    pub reused: Vec<usize>,
    /// `(shard, replica)` pairs that received a full image.
    pub shipped: Vec<(usize, usize)>,
    /// Image bytes shipped in total.
    pub bytes_shipped: u64,
    /// Entries applied by the catch-up delta round after the cutover.
    pub catch_up_entries: usize,
    /// `(shard, replica)` pairs that could not be brought up.
    pub failed: Vec<(usize, usize)>,
}

/// Why one remote probe attempt failed (the task's `Err` value).
enum NetFault {
    /// Fast-failed inside an open backoff window (not a breaker fault).
    Backoff,
    /// The peer answered with a typed error.
    Remote,
    /// Transport failure (connect, timeout, torn frame, bad bytes).
    Transport,
}

/// The socket-backed router. Serves [`SuggestService`] with the same
/// outcome contract as [`pqsda_serve::ShardedPqsDa`].
pub struct NetRouter {
    config: NetConfig,
    topology: Swap<Topology>,
    router: Swap<QueryLog>,
    queue: IngestQueue,
    rebuild_lock: parking_lot::Mutex<()>,
    requests: AtomicU64,
    gate: AdmissionGate,
    counters: NetCounters,
}

impl NetRouter {
    /// A router over `addrs[s]` = the replica addresses of shard `s`,
    /// holding `router_log` as the global vocabulary (it must cover
    /// every shard's log — build it from the same full entry set the
    /// shards were partitioned from).
    pub fn connect(router_log: QueryLog, addrs: &[Vec<NetAddr>], config: NetConfig) -> NetRouter {
        assert!(!addrs.is_empty(), "need at least one shard");
        let shards = addrs
            .iter()
            .map(|a| Arc::new(NetShard::connect(a, &config.fault, &config.client)))
            .collect();
        let router = NetRouter {
            queue: IngestQueue::new(config.queue_capacity),
            topology: Swap::new(Arc::new(Topology { shards })),
            router: Swap::new(Arc::new(router_log)),
            rebuild_lock: parking_lot::Mutex::new(()),
            requests: AtomicU64::new(0),
            gate: AdmissionGate::new(),
            counters: NetCounters::default(),
            config,
        };
        let _ = router.ping_all(); // records each replica's generation
        router
    }

    /// Pings every replica, recording the generations they serve.
    /// Returns per-shard, per-replica results (readiness checks).
    pub fn ping_all(&self) -> Vec<Vec<Result<(u32, u64), ProbeError>>> {
        let topo = self.topology.load();
        topo.shards
            .iter()
            .map(|shard| {
                shard
                    .replicas
                    .iter()
                    .enumerate()
                    .map(|(r, replica)| {
                        let res = replica.ping(Some(&Deadline::in_ms(2_000)));
                        if let Ok((_, generation)) = &res {
                            shard.generations[r].store(*generation, Ordering::Relaxed);
                        }
                        res
                    })
                    .collect()
            })
            .collect()
    }

    /// Shards in the current topology.
    pub fn shards(&self) -> usize {
        self.topology.load().shards.len()
    }

    /// Looks a query up in the global id space.
    pub fn find_query(&self, raw: &str) -> Option<QueryId> {
        self.router.load().find_query(raw)
    }

    /// Resolves a global id to its text.
    pub fn query_text(&self, q: QueryId) -> Option<String> {
        let router = self.router.load();
        (q.index() < router.num_queries()).then(|| router.query_text(q).to_owned())
    }

    /// Requests an orderly shutdown of every shard process (best effort;
    /// per-replica results returned for auditing).
    pub fn shutdown_all(&self) -> Vec<Vec<Result<(), ProbeError>>> {
        let topo = self.topology.load();
        topo.shards
            .iter()
            .map(|shard| {
                shard
                    .replicas
                    .iter()
                    .map(|r| r.shutdown(Some(&Deadline::in_ms(2_000))))
                    .collect()
            })
            .collect()
    }

    /// Offers one entry to the ingestion queue (non-blocking).
    pub fn ingest(&self, entry: LogEntry) -> bool {
        self.queue.offer(entry)
    }

    /// Deadline-aware ingestion offer.
    pub fn ingest_with_deadline(
        &self,
        entry: LogEntry,
        deadline: Option<&Deadline>,
    ) -> IngestOffer {
        self.queue.offer_with_deadline(entry, deadline)
    }

    /// Serves one request (no deadline beyond the configured budget).
    pub fn suggest(&self, req: &pqsda_baselines::SuggestRequest) -> ServeOutcome {
        self.suggest_with_deadline(req, None)
    }

    /// The scatter-gather core: the shared [`gather`] loop over remote
    /// replicas. A replica in an open backoff window fast-fails its
    /// attempt without counting against the breaker.
    fn suggest_core(
        &self,
        req: &pqsda_baselines::SuggestRequest,
        request_deadline: Option<&Deadline>,
    ) -> ServeReply {
        let request = self.requests.fetch_add(1, Ordering::Relaxed);
        let router = self.router.load();
        if req.query.index() >= router.num_queries() || req.k == 0 {
            return ServeReply::empty();
        }
        let topo = self.topology.load();
        let input_text = router.query_text(req.query).to_owned();
        let targets = request_targets(self.config.key, &input_text, topo.shards.len());

        // Translate once into wire form: global context ids → text,
        // dropping ids outside the router's vocabulary exactly like
        // `shard_probe` does.
        let mut context = Vec::with_capacity(req.context.len());
        for (&c, &t) in req.context.iter().zip(&req.context_times) {
            if c.index() >= router.num_queries() {
                continue;
            }
            context.push((router.query_text(c).to_owned(), t));
        }
        let wire_req = WireRequest {
            query: input_text,
            context,
            query_time: req.query_time,
            user: req.user.map(|u| u.0),
            k: req.k.min(u32::MAX as usize) as u32,
            backend: backend_to_wire(req.backend),
        };

        let fault = &self.config.fault;
        let fanout = Fanout::new(request, &targets, req.k, fault, request_deadline);
        let deadline = fanout.deadline.map(Deadline::at);
        let shard = |s: usize| {
            let shard = &topo.shards[s];
            (&shard.health, shard.replicas.len())
        };
        // The id↔text translation of the *reply* happens inside the task
        // (off the caller's thread); unknown texts are dropped exactly
        // like `shard_probe` drops vocabulary races.
        let spawn = |s: usize, replica: usize| {
            let remote = Arc::clone(&topo.shards[s].replicas[replica]);
            let router = Arc::clone(&router);
            let req = wire_req.clone();
            move |_: &CancelToken| match remote.suggest(req, deadline.as_ref()) {
                Ok(reply) => {
                    let tag: ShardTag = reply.tag.into();
                    let list = reply
                        .suggestions
                        .into_iter()
                        .filter_map(|(text, bits)| {
                            router.find_query(&text).map(|g| (g, f64::from_bits(bits)))
                        })
                        .collect();
                    Ok::<Answer, _>((tag, list))
                }
                Err(e) if e.is_backoff() => Err(NetFault::Backoff),
                Err(ProbeError::Remote { .. }) => Err(NetFault::Remote),
                Err(_) => Err(NetFault::Transport),
            }
        };
        // Only a slot with some attempt failing for a reason other than
        // backoff records a breaker fault: the fault that armed a backoff
        // window was recorded when it happened.
        let classify = |fault: Result<NetFault, TaskPanic>| {
            let c = &self.counters;
            if let Ok(NetFault::Backoff) = fault {
                c.backoff_skips.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if let Ok(NetFault::Remote) = fault {
                c.remote_errors.fetch_add(1, Ordering::Relaxed);
            }
            c.errors.fetch_add(1, Ordering::Relaxed);
            true
        };
        let reply = gather(fanout, &self.counters.gather, shard, spawn, classify);
        if reply.coverage.is_degraded() {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }

    /// The writer step: drain the queue, grow the router log, and bring
    /// every replica to the new generation — incrementally when the
    /// replica is in lockstep and the batch applies, by full snapshot
    /// handoff otherwise. Replicas that fail both stay stale and are
    /// retried (as handoffs) next cycle; readers keep merging whatever
    /// the replicas currently serve, with honest tags.
    pub fn apply_deltas(&self) -> NetSwapReport {
        let _writer = self.rebuild_lock.lock();
        self.apply_deltas_locked()
    }

    fn apply_deltas_locked(&self) -> NetSwapReport {
        let (deltas, deferred) = self.queue.drain_batch(self.config.max_delta_entries);
        let mut report = NetSwapReport {
            deferred,
            ..NetSwapReport::default()
        };
        if deltas.is_empty() {
            return report;
        }
        // Router grows first: the global vocabulary must cover every
        // shard's before any shard publishes (reply translation relies
        // on the superset invariant).
        let mut grown = (*self.router.load()).clone();
        for e in &deltas {
            grown.push_entry(e);
        }
        self.router.store(Arc::new(grown));

        let topo = self.topology.load();
        let shards = topo.shards.len();
        let parts = partition_entries(&deltas, self.config.key, shards);
        for (s, delta) in parts.into_iter().enumerate() {
            if delta.is_empty() {
                continue;
            }
            let shard = &topo.shards[s];
            for (r, replica) in shard.replicas.iter().enumerate() {
                let known = shard.generations[r].load(Ordering::Relaxed);
                let incremental = replica.delta(delta.clone(), None);
                match incremental {
                    // Lockstep check: the ack generation must be exactly
                    // one past what the router last saw, or the replica
                    // skipped a batch and now serves a hole.
                    Ok(tag) if tag.generation == known + 1 => {
                        shard.generations[r].store(tag.generation, Ordering::Relaxed);
                        report.incremental.push((s, r));
                    }
                    _ => match self.resync_replica(s, r, shard, replica) {
                        Ok(()) => report.handoffs.push((s, r)),
                        Err(_) => report.failed.push((s, r)),
                    },
                }
            }
        }
        report.drained = deltas.len();
        report.drained_entries = deltas;
        report
    }

    /// Rebuilds shard `s`'s world from the router's full entry log (the
    /// in-process cold-rebuild base, bit-identical by construction) and
    /// ships it to `replica` as a snapshot image.
    fn resync_replica(
        &self,
        s: usize,
        r: usize,
        shard: &NetShard,
        replica: &RemoteReplica,
    ) -> Result<(), ProbeError> {
        let shards = self.topology.load().shards.len();
        let router = self.router.load();
        let part = partition_entries(&router.entries(), self.config.key, shards).swap_remove(s);
        let engine = PqsDa::build_from_entries(&part, &self.config.build);
        let generation = match replica.ping(Some(&Deadline::in_ms(2_000))) {
            Ok((_, g)) => g + 1,
            Err(_) => shard.generations[r].load(Ordering::Relaxed) + 1,
        };
        let (meta, image) = engine_image(&engine, s as u64, generation);
        let tag = replica.install_snapshot(&meta, &image, self.config.snap_chunk_bytes)?;
        if tag.generation != generation {
            return Err(ProbeError::BadReply("handoff published wrong generation"));
        }
        shard.generations[r].store(generation, Ordering::Relaxed);
        Ok(())
    }

    /// Live topology change: re-partition the router's entry log onto
    /// `new_addrs.len()` shards, ship images to every shard whose world
    /// or address set changed, run one catch-up delta round, and flip
    /// the topology atomically. Serving continues against the old
    /// topology until the flip.
    pub fn resize(&self, new_addrs: &[Vec<NetAddr>]) -> ResizeReport {
        assert!(!new_addrs.is_empty(), "need at least one shard");
        let _writer = self.rebuild_lock.lock();
        let old = self.topology.load();
        let router = self.router.load();
        let all = router.entries();
        let old_n = old.shards.len();
        let new_n = new_addrs.len();
        let old_parts = partition_entries(&all, self.config.key, old_n);
        let new_parts = partition_entries(&all, self.config.key, new_n);
        let mut report = ResizeReport {
            shards_before: old_n,
            shards_after: new_n,
            ..ResizeReport::default()
        };
        let mut shards: Vec<Arc<NetShard>> = Vec::with_capacity(new_n);
        for (s, addrs) in new_addrs.iter().enumerate() {
            let unchanged = s < old_n
                && old.shards[s]
                    .replicas
                    .iter()
                    .map(|r| r.addr())
                    .eq(addrs.iter())
                && old_parts[s] == new_parts[s];
            if unchanged {
                report.reused.push(s);
                shards.push(Arc::clone(&old.shards[s]));
                continue;
            }
            let shard = Arc::new(NetShard::connect(
                addrs,
                &self.config.fault,
                &self.config.client,
            ));
            let engine = PqsDa::build_from_entries(&new_parts[s], &self.config.build);
            for (r, replica) in shard.replicas.iter().enumerate() {
                let generation = match replica.ping(Some(&Deadline::in_ms(2_000))) {
                    Ok((_, g)) => g + 1,
                    Err(_) => 1,
                };
                let (meta, image) = engine_image(&engine, s as u64, generation);
                match replica.install_snapshot(&meta, &image, self.config.snap_chunk_bytes) {
                    Ok(_) => {
                        shard.generations[r].store(generation, Ordering::Relaxed);
                        report.shipped.push((s, r));
                        report.bytes_shipped += image.len() as u64;
                    }
                    Err(_) => report.failed.push((s, r)),
                }
            }
            shards.push(shard);
        }
        // Cutover: one atomic pointer store. In-flight requests finish
        // against the old topology's replicas (their Arcs keep them
        // alive); new requests see the new ring.
        self.topology.store(Arc::new(Topology { shards }));
        // Catch-up round: entries queued while images were shipping.
        let catch_up = self.apply_deltas_locked();
        report.catch_up_entries = catch_up.drained;
        report
    }

    /// Point-in-time stats.
    pub fn stats(&self) -> NetStats {
        let topo = self.topology.load();
        let g = &self.counters.gather;
        NetStats {
            shards: topo.shards.len(),
            probes: g.probes.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            remote_errors: self.counters.remote_errors.load(Ordering::Relaxed),
            timeouts: g.timeouts.load(Ordering::Relaxed),
            hedges: g.hedges.load(Ordering::Relaxed),
            failovers: g.failovers.load(Ordering::Relaxed),
            hedge_wins: g.hedge_wins.load(Ordering::Relaxed),
            breaker_skips: g.breaker_skips.load(Ordering::Relaxed),
            backoff_skips: self.counters.backoff_skips.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            breaker_opens: topo.shards.iter().map(|s| s.health.breaker.opens()).sum(),
            breakers: topo
                .shards
                .iter()
                .map(|s| s.health.breaker.state())
                .collect(),
            generations: topo
                .shards
                .iter()
                .map(|s| s.generations[0].load(Ordering::Relaxed))
                .collect(),
            ingest: self.queue.stats(),
            admission: self.gate.stats(),
        }
    }
}

impl SuggestService for NetRouter {
    fn suggest_with_deadline(
        &self,
        req: &pqsda_baselines::SuggestRequest,
        deadline: Option<Deadline>,
    ) -> ServeOutcome {
        let permit = match self.gate.admit(deadline.as_ref()) {
            Ok(p) => p,
            Err(rejection) => return ServeOutcome::Rejected(rejection),
        };
        let reply = self.suggest_core(req, deadline.as_ref());
        drop(permit);
        ServeOutcome::Served(reply)
    }
}
