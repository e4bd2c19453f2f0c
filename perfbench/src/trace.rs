//! The traced mode: replays served requests and swaps stage by stage
//! through each layer's public functions, recording spans.
//!
//! Spans are recorded from the benchmark's side, around the calls into
//! each layer, and kept in memory until the run ends. Every replay is
//! checked against the served result (reply ids and raw score bits,
//! graph and profile digests), so the spans describe the computation
//! that actually produced the reply.

use pqsda::{
    DiversifyBackend, EngineBuildOptions, HittingTimeDiversify, Personalizer, Regularizer,
};
use pqsda_baselines::SuggestRequest;
use pqsda_graph::compact::CompactMulti;
use pqsda_linalg::solver::{ConjugateGradient, LinearSolver};
use pqsda_net::{Frame, Msg, RemoteReplica, WireReply, WireRequest};
use pqsda_parallel::{spawn_cancellable, Deadline, TaskPoll};
use pqsda_querylog::session::{restamp_appended, segment_sessions, segment_sessions_append};
use pqsda_querylog::{LogEntry, QueryId, QueryLog};
use pqsda_serve::{
    merge_rank_stratified, partition_entries, shard_probe, PartitionKey, ServeReply, ShardSnapshot,
};
use pqsda_topics::{Corpus, TrainConfig, Upm, UpmConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-prefixed stage name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or batch) the span belongs to.
    pub req: u64,
}

/// A prepared seed set: what the engine memoizes per miss.
struct Prepared {
    compact: CompactMulti,
    regularizer: Regularizer,
    alg1: HittingTimeDiversify,
}

/// Span recorder plus the replay's own expansion memo.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    req: u64,
    build: EngineBuildOptions,
    memo: HashMap<(usize, Vec<QueryId>), Arc<Prepared>>,
    /// Per-operation values that are not span self times.
    pub values: BTreeMap<&'static str, Vec<f64>>,
    /// Replays whose result differed from the served one.
    pub mismatches: u64,
    /// Replayed operations.
    pub replayed: u64,
    /// Shard lookups where the replay memo disagreed with the engine's
    /// hit/miss counters.
    pub memo_disagreements: u64,
    /// Wall time spent replaying (ms), for the overhead report.
    pub replay_ms: f64,
}

fn bits_equal(a: &[(QueryId, f64)], b: &[(QueryId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((qa, sa), (qb, sb))| qa == qb && sa.to_bits() == sb.to_bits())
}

impl Tracer {
    /// A tracer for servers built with `build`.
    pub fn new(build: EngineBuildOptions) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            req: 0,
            build,
            memo: HashMap::new(),
            values: BTreeMap::new(),
            mismatches: 0,
            replayed: 0,
            memo_disagreements: 0,
            replay_ms: 0.0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e3
    }

    /// Records one per-operation value.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn next_req(&mut self) {
        self.req += 1;
        self.replayed += 1;
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus the part its children
    /// cover), grouped by name, in µs.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes every span as TSV (name, start_ns, end_ns, parent, req).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\treq")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }

    fn prepare(&self, snap: &ShardSnapshot, seeds: &[QueryId]) -> Prepared {
        let cfg = &self.build.config;
        let compact = CompactMulti::expand(snap.engine.multi(), seeds, &cfg.compact);
        let regularizer = Regularizer::new(&compact, cfg.diversify.regularization);
        let alg1 = HittingTimeDiversify::new(&compact, cfg.diversify);
        Prepared {
            compact,
            regularizer,
            alg1,
        }
    }

    /// Fills the replay memo for a request the server answered during
    /// warm-up (untimed), so the replay mirrors the engine's warm memo.
    pub fn warm(&mut self, router: &QueryLog, snaps: &[Arc<ShardSnapshot>], req: &SuggestRequest) {
        for (s, snap) in snaps.iter().enumerate() {
            if let Some((_, seeds)) = translate(router, snap, req) {
                if !self.memo.contains_key(&(s, seeds.clone())) {
                    let p = Arc::new(self.prepare(snap, &seeds));
                    self.memo.insert((s, seeds), p);
                }
            }
        }
    }

    /// One shard's share of a request, stage by stage — the replay of
    /// `shard_probe` and the engine path behind it. `live_miss` is
    /// whether the engine's memo missed on this shard.
    fn probe(
        &mut self,
        router: &QueryLog,
        shard: usize,
        snap: &ShardSnapshot,
        req: &SuggestRequest,
        live_miss: bool,
        parent: usize,
    ) -> Vec<(QueryId, f64)> {
        let Some((local_req, seeds)) = translate(router, snap, req) else {
            return Vec::new();
        };
        let key = (shard, seeds);
        let cached = self.memo.get(&key).cloned();
        if cached.is_some() == live_miss {
            self.memo_disagreements += 1;
        }
        let prepared = match (cached, live_miss) {
            (Some(p), false) => p,
            // The engine hit an entry the replay never saw: prepare it
            // untimed, since the served request did not pay for it.
            (None, false) => {
                let p = Arc::new(self.prepare(snap, &key.1));
                self.memo.insert(key, Arc::clone(&p));
                p
            }
            (_, true) => {
                let cfg = self.build.config;
                let span = self.open("graph.expand", Some(parent));
                let compact = CompactMulti::expand(snap.engine.multi(), &key.1, &cfg.compact);
                self.close(span);
                self.record("graph.expand_queries", compact.len() as f64);
                let span = self.open("core.prep", Some(parent));
                let regularizer = Regularizer::new(&compact, cfg.diversify.regularization);
                let alg1 = HittingTimeDiversify::new(&compact, cfg.diversify);
                self.close(span);
                let p = Arc::new(Prepared {
                    compact,
                    regularizer,
                    alg1,
                });
                self.memo.insert(key, Arc::clone(&p));
                p
            }
        };
        let compact = &prepared.compact;
        let input_local = compact
            .local(local_req.query)
            .expect("the input query is always a seed");
        let context: Vec<(usize, u64)> = local_req
            .context
            .iter()
            .zip(&local_req.context_times)
            .filter_map(|(&q, &t)| {
                compact
                    .local(q)
                    .map(|l| (l, local_req.query_time.saturating_sub(t)))
            })
            .collect();

        // Eq. 15: seed, solve (the CG child span), arg-max — the steps of
        // `Regularizer::first_candidate`, checked against it below.
        let rel = self.open("core.relevance", Some(parent));
        let n = compact.len();
        let f0 = prepared.regularizer.seed_vector(n, input_local, &context);
        let cg = self.open("linalg.cg", Some(rel));
        let solved = ConjugateGradient::new(self.build.config.diversify.regularization.solver)
            .solve(prepared.regularizer.coefficient(), &f0);
        self.close(cg);
        let f_star = solved.solution;
        let excluded: Vec<usize> = std::iter::once(input_local)
            .chain(context.iter().map(|&(l, _)| l))
            .collect();
        let first = (0..n)
            .filter(|i| !excluded.contains(i) && f_star[*i] > 0.0)
            .max_by(|&a, &b| f_star[a].total_cmp(&f_star[b]).then(b.cmp(&a)));
        self.close(rel);
        self.record("linalg.cg_iters", solved.iterations as f64);
        let reference = prepared.regularizer.first_candidate(input_local, &context);
        let same_first = match (&reference, first) {
            (None, None) => true,
            (Some((rf, rs)), Some(f)) => {
                *rf == f
                    && rs.len() == f_star.len()
                    && rs
                        .iter()
                        .zip(&f_star)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        };
        if !same_first {
            self.mismatches += 1;
        }
        let Some(first) = first else {
            return Vec::new();
        };

        let span = self.open("core.alg1", Some(parent));
        let picks = prepared
            .alg1
            .select(first, &f_star, input_local, &context, local_req.k);
        self.close(span);
        self.record("core.alg1_rounds", picks.len().saturating_sub(1) as f64);
        let mut scored: Vec<(QueryId, f64)> =
            picks.iter().map(|&(l, s)| (compact.global(l), s)).collect();

        if let (Some(p), Some(user)) = (snap.engine.personalizer(), local_req.user) {
            let span = self.open("core.rerank", Some(parent));
            let qids: Vec<QueryId> = scored.iter().map(|&(q, _)| q).collect();
            let reranked = p.rerank(user, snap.engine.log(), &qids);
            let score_of: HashMap<QueryId, f64> = scored.iter().copied().collect();
            scored = reranked
                .into_iter()
                .map(|q| (q, score_of.get(&q).copied().unwrap_or(0.0)))
                .collect();
            self.close(span);
        }
        let shard_log = snap.engine.log();
        scored
            .into_iter()
            .filter_map(|(q, s)| router.find_query(shard_log.query_text(q)).map(|g| (g, s)))
            .collect()
    }

    /// Replays one in-process request served in `e2e_ms` with `served`;
    /// `live_miss[s]` says whether shard `s`'s memo missed.
    pub fn replay_suggest(
        &mut self,
        router: &QueryLog,
        snaps: &[Arc<ShardSnapshot>],
        req: &SuggestRequest,
        served: &ServeReply,
        e2e_ms: f64,
        live_miss: &[bool],
    ) {
        let t = Instant::now();
        self.next_req();
        let root = self.open("serve.request", None);
        let mut lists = Vec::with_capacity(snaps.len());
        let mut slowest = 0.0f64;
        for (s, snap) in snaps.iter().enumerate() {
            let span = self.open("serve.probe", Some(root));
            lists.push(self.probe(router, s, snap, req, live_miss[s], span));
            slowest = slowest.max(self.close(span));
        }
        let span = self.open("serve.merge", Some(root));
        let merged = merge_rank_stratified(&lists, req.k);
        let merge_us = self.close(span);
        self.close(root);
        if !bits_equal(&merged, &served.suggestions) {
            self.mismatches += 1;
        }
        let handoff_us = handoff_us();
        let e2e_us = e2e_ms * 1e3;
        self.record("parallel.handoff_us", handoff_us);
        self.record("serve.gather_us", e2e_us - slowest);
        self.record("trace.e2e_us", e2e_us);
        self.record(
            "trace.residual_us",
            e2e_us - slowest - merge_us - handoff_us,
        );
        self.replay_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    /// Replays one request served by the socket router: per shard, the
    /// frame encode, the round trip through a separate client to the same
    /// shard server, the frame decode, and the server-side probe on the
    /// snapshot that server holds.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_net(
        &mut self,
        router: &QueryLog,
        clients: &[RemoteReplica],
        snaps: &[Arc<ShardSnapshot>],
        req: &SuggestRequest,
        served: &ServeReply,
        e2e_ms: f64,
        deadline_ms: u64,
    ) {
        let t = Instant::now();
        self.next_req();
        let wire = wire_request(router, req);
        let root = self.open("net.request", None);
        let mut lists = Vec::with_capacity(clients.len());
        let mut slowest_rtt = 0.0f64;
        for (s, client) in clients.iter().enumerate() {
            let deadline = Deadline::in_ms(deadline_ms);
            let span = self.open("net.encode", Some(root));
            let bytes = Msg::Suggest(wire.clone())
                .into_frame(self.req, Some(&deadline))
                .encode();
            self.close(span);
            let span = self.open("net.rtt", Some(root));
            let reply = client.suggest(wire.clone(), Some(&deadline));
            let rtt_us = self.close(span);
            slowest_rtt = slowest_rtt.max(rtt_us);
            let Ok(reply) = reply else {
                self.mismatches += 1;
                continue;
            };
            let reply_bytes = Msg::SuggestReply(reply.clone())
                .into_frame(self.req, None)
                .encode();
            let span = self.open("net.decode", Some(root));
            let decoded = Frame::decode_exact(&reply_bytes)
                .ok()
                .and_then(|(f, _)| Msg::from_frame(&f).ok());
            self.close(span);
            if !matches!(&decoded, Some(Msg::SuggestReply(r)) if *r == reply) {
                self.mismatches += 1;
            }
            self.record("net.frame_bytes", (bytes.len() + reply_bytes.len()) as f64);
            let probe_t = Instant::now();
            let local = shard_probe(router, &snaps[s], &wire.query, req);
            let probe_us = probe_t.elapsed().as_secs_f64() * 1e6;
            self.record("serve.probe_us", probe_us);
            self.record("net.transport_us", rtt_us - probe_us);
            self.record("net.rtt_us", rtt_us);
            let list = from_wire(router, &reply);
            if !bits_equal(&list, &local) {
                self.mismatches += 1;
            }
            lists.push(list);
        }
        let span = self.open("serve.merge", Some(root));
        let merged = merge_rank_stratified(&lists, req.k);
        self.close(span);
        self.close(root);
        if !bits_equal(&merged, &served.suggestions) {
            self.mismatches += 1;
        }
        let e2e_us = e2e_ms * 1e3;
        self.record("net.router_us", e2e_us - slowest_rtt);
        self.record("trace.e2e_us", e2e_us);
        self.replay_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    /// Replays one `apply_deltas` of `batch` layer by layer on the
    /// snapshots it replaced (`before`), checking the graph and profile
    /// digests against the published ones (`after`).
    pub fn replay_delta(
        &mut self,
        batch: &[LogEntry],
        before: &[Arc<ShardSnapshot>],
        after: &[Arc<ShardSnapshot>],
        swap_ms: f64,
    ) {
        let t = Instant::now();
        self.next_req();
        let root = self.open("serve.swap", None);
        let parts = partition_entries(batch, PartitionKey::User, before.len());
        for (s, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let mut log = before[s].engine.log().clone();
            let personalize = self.build.personalize.is_some();
            let span = self.open("querylog.append", Some(root));
            let Some(delta) = log.append_entries(part) else {
                self.mismatches += 1;
                self.close(span);
                continue;
            };
            let sessions = personalize.then(|| {
                segment_sessions_append(&mut log, &self.build.session, delta.first_record)
            });
            let num_sessions = match &sessions {
                Some(s) => s.len(),
                None => restamp_appended(&mut log, &self.build.session, delta.first_record),
            };
            self.close(span);
            let span = self.open("graph.delta", Some(root));
            let multi = before[s]
                .engine
                .multi()
                .apply_delta(&log, num_sessions, &delta);
            self.close(span);
            match multi {
                Some((m, _)) if m.digest() == after[s].tag.graph_digest => {}
                _ => self.mismatches += 1,
            }
            if let (Some(p), Some(sessions)) = (before[s].engine.personalizer(), &sessions) {
                let span = self.open("topics.retrain", Some(root));
                let corpus = Corpus::build(&log, sessions);
                let retrained = p.retrain_delta(&corpus, &delta.touched_users, log.num_users());
                self.close(span);
                if retrained.map(|p| p.digest()) != Some(after[s].tag.profile_digest) {
                    self.mismatches += 1;
                }
            }
        }
        let replay_us = self.close(root);
        self.record("serve.swap_ms", swap_ms);
        self.record("serve.swap_residual_ms", swap_ms - replay_us / 1e3);
        self.replay_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    /// Replays the UPM training of every shard of a server built from
    /// `entries`, checking each profile digest.
    pub fn replay_train(&mut self, entries: &[LogEntry], snaps: &[Arc<ShardSnapshot>]) {
        let Some(opts) = self.build.personalize else {
            return;
        };
        self.next_req();
        // The sampler settings `ProfileTrainOptions` hands to `Upm::train`
        // (its conversion is private); the digest check below catches any
        // divergence.
        let cfg = UpmConfig {
            base: TrainConfig {
                num_topics: opts.num_topics,
                iterations: opts.iterations,
                seed: opts.seed,
                ..TrainConfig::default()
            },
            hyper_every: opts.hyper_every,
            hyper_iterations: opts.hyper_iterations,
            threads: opts.threads,
        };
        for (s, part) in partition_entries(entries, PartitionKey::User, snaps.len())
            .iter()
            .enumerate()
        {
            let mut log = QueryLog::from_entries(part);
            let sessions = segment_sessions(&mut log, &self.build.session);
            let corpus = Corpus::build(&log, &sessions);
            let span = self.open("topics.train", None);
            let upm = Upm::train(&corpus, &cfg);
            self.close(span);
            let digest = Personalizer::new(upm, &corpus, log.num_users()).digest();
            if digest != snaps[s].tag.profile_digest {
                self.mismatches += 1;
            }
        }
    }
}

/// The shard-local form of `req` (the translation `shard_probe` makes)
/// and its memo key; `None` when the shard never saw the query.
fn translate(
    router: &QueryLog,
    snap: &ShardSnapshot,
    req: &SuggestRequest,
) -> Option<(SuggestRequest, Vec<QueryId>)> {
    let shard_log = snap.engine.log();
    let query = shard_log.find_query(router.query_text(req.query))?;
    let mut local = SuggestRequest {
        query,
        context: Vec::new(),
        context_times: Vec::new(),
        ..req.clone()
    };
    for (&c, &t) in req.context.iter().zip(&req.context_times) {
        if c.index() >= router.num_queries() {
            continue;
        }
        if let Some(lc) = shard_log.find_query(router.query_text(c)) {
            local.context.push(lc);
            local.context_times.push(t);
        }
    }
    let mut seeds = vec![query];
    seeds.extend(local.context.iter().copied());
    let mut seen = HashSet::new();
    seeds.retain(|q| seen.insert(*q));
    Some((local, seeds))
}

/// The wire form of `req`, as the socket router builds it.
fn wire_request(router: &QueryLog, req: &SuggestRequest) -> WireRequest {
    WireRequest {
        query: router.query_text(req.query).to_owned(),
        context: req
            .context
            .iter()
            .zip(&req.context_times)
            .filter(|(c, _)| c.index() < router.num_queries())
            .map(|(&c, &t)| (router.query_text(c).to_owned(), t))
            .collect(),
        query_time: req.query_time,
        user: req.user.map(|u| u.0),
        k: req.k as u32,
        backend: pqsda_net::backend_to_wire(req.backend),
    }
}

/// A wire reply in global ids (unknown texts dropped, as the router does).
fn from_wire(router: &QueryLog, reply: &WireReply) -> Vec<(QueryId, f64)> {
    reply
        .suggestions
        .iter()
        .filter_map(|(t, bits)| router.find_query(t).map(|q| (q, f64::from_bits(*bits))))
        .collect()
}

/// Time from spawning a no-op cancellable task until `try_take` returns
/// it (µs): the runner hand-off every gathered probe pays.
pub fn handoff_us() -> f64 {
    let t = Instant::now();
    let h = spawn_cancellable(|_| ());
    while let TaskPoll::Pending = h.try_take() {
        std::hint::spin_loop();
    }
    t.elapsed().as_secs_f64() * 1e6
}
