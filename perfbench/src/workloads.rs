//! The four workloads: set-up, the closed measurement loop, the write
//! and restart phases, and reply verification.
//!
//! One client thread sends each request only after the previous reply
//! arrived (callers are search boxes that wait), so there is no
//! open-loop dispatcher and no concurrent writer.

use crate::meter::{Basis, Fanout, Meter, Sample};
use crate::stats::{iqr_share, mean, median, tail, tail_min_samples};
use crate::trace::Tracer;
use crate::world::{
    cold_stream, hot_cycle, hot_pool, ingest_pass, serve_config, World, COLD_WARMUP, DEADLINE_MS,
    SHARDS,
};
use pqsda_baselines::SuggestRequest;
use pqsda_net::{
    ClientConfig, NetAddr, NetConfig, NetRouter, RemoteReplica, ServerHandle, ShardServer,
    ShardServerConfig,
};
use pqsda_parallel::Deadline;
use pqsda_querylog::{QueryId, QueryLog};
use pqsda_serve::{
    load_server, save_server, shard_file, AdmissionStats, PartitionKey, ServeOutcome, ServeReply,
    ShardSnapshot, ShardedPqsDa, SuggestService,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// `load_server` (or shard-server restart) calls per run.
pub const RESTARTS: usize = 40;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Memo-hit k=10 requests over a hot pool, in process.
    HotK10,
    /// Memo-miss k=1 requests with one session query as context.
    ColdCtxK1,
    /// The hot pool at k=1 through the socket router over UDS.
    NetHotK1,
    /// Personalized k=10 reads between sequential delta swaps.
    IngestPersK10,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HotK10,
        Workload::ColdCtxK1,
        Workload::NetHotK1,
        Workload::IngestPersK10,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotK10 => "hot_k10",
            Workload::ColdCtxK1 => "cold_ctx_k1",
            Workload::NetHotK1 => "net_hot_k1",
            Workload::IngestPersK10 => "ingest_pers_k10",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The timing basis.
    pub fn basis(self) -> Basis {
        match self {
            Workload::NetHotK1 => Basis::Wall,
            _ => Basis::HostNormalized,
        }
    }

    /// The tail percentile reported as `suggest_tail_ms`: the highest
    /// that leaves ≥10 samples beyond it at the contracted run length
    /// (≈350 requests on `hot_k10`, 1200 on `cold_ctx_k1`, 236 on
    /// `ingest_pers_k10`, thousands on `net_hot_k1`).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::HotK10 => 97.0,
            Workload::ColdCtxK1 | Workload::NetHotK1 => 99.0,
            Workload::IngestPersK10 => 95.0,
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Measured operations (suggests, swaps, restarts).
    pub attempted: u64,
    /// Operations that were rejected, late, degraded or wrong.
    pub failed: u64,
    /// Failed checks other than per-operation failures.
    pub problems: Vec<String>,
    /// End-to-end metrics (name, value, unit).
    pub end_to_end: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (name, value, unit); filled by traced runs.
    pub per_layer: Vec<(String, f64, &'static str)>,
    /// Ungated diagnostics (name, value, unit).
    pub diagnostics: Vec<(String, f64, &'static str)>,
    /// Self time per stage: (stage, calls, total ms).
    pub self_time: Vec<(String, usize, f64)>,
}

/// Everything a run accumulates.
struct Run<'a> {
    seed: u64,
    seconds: f64,
    meter: Meter,
    tracer: Option<Tracer>,
    world: &'a World,
    suggests: Vec<Sample>,
    suggest_traced: Vec<bool>,
    fresh: Vec<Sample>,
    restarts: Vec<Sample>,
    facets: Vec<f64>,
    out: Outcome,
    memo_hits: u64,
    memo_misses: u64,
    store_save_ms: f64,
    store_bytes: f64,
    /// The socket router's admission counters (`net_hot_k1`), which the
    /// in-process server's stats do not see.
    net_admission: Option<AdmissionStats>,
}

fn bits_equal(a: &[(QueryId, f64)], b: &[(QueryId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((qa, sa), (qb, sb))| qa == qb && sa.to_bits() == sb.to_bits())
}

fn snapshots(server: &ShardedPqsDa) -> Vec<Arc<ShardSnapshot>> {
    (0..SHARDS).map(|s| server.shard_snapshot(s)).collect()
}

fn shard_misses(snaps: &[Arc<ShardSnapshot>]) -> Vec<u64> {
    snaps
        .iter()
        .map(|s| s.engine.cache_stats().misses)
        .collect()
}

const ALL_SHARDS: [usize; SHARDS] = [0, 1];

impl<'a> Run<'a> {
    fn fail(&mut self, what: impl Into<String>) {
        self.out.failed += 1;
        let what = what.into();
        if self.out.problems.len() < 20 {
            self.out.problems.push(what);
        }
    }

    fn problem(&mut self, what: impl Into<String>) {
        self.out.problems.push(what.into());
    }

    /// Sends one request through `svc` and checks the outcome.
    fn serve(
        &mut self,
        svc: &dyn SuggestService,
        router: &QueryLog,
        req: &SuggestRequest,
        traced: bool,
    ) -> (Option<ServeReply>, Sample) {
        let (outcome, sample) = self.meter.time_on(Fanout::Parallel, || {
            svc.suggest_with_deadline(req, Some(Deadline::in_ms(DEADLINE_MS)))
        });
        self.out.attempted += 1;
        self.suggests.push(sample);
        self.suggest_traced.push(traced);
        let reply = match outcome {
            ServeOutcome::Rejected(r) => {
                self.fail(format!("rejected: {r:?}"));
                return (None, sample);
            }
            ServeOutcome::Served(reply) => reply,
        };
        if sample.wall_ms > DEADLINE_MS as f64 {
            self.fail("deadline missed");
        }
        if reply.coverage.is_degraded() {
            self.fail(format!("degraded coverage {:?}", reply.coverage));
        }
        self.facets.push(
            self.world
                .distinct_facets(reply.suggestions.iter().map(|&(q, _)| router.query_text(q)))
                as f64,
        );
        (Some(reply), sample)
    }

    /// Sends one request to the in-process server; in traced runs the
    /// request is then replayed stage by stage.
    fn serve_inproc(
        &mut self,
        server: &ShardedPqsDa,
        req: &SuggestRequest,
        traced: bool,
    ) -> Option<ServeReply> {
        let router = server.router_log();
        let snaps = traced.then(|| snapshots(server));
        let before = snaps.as_deref().map(shard_misses);
        let (reply, sample) = self.serve(server, &router, req, traced);
        if let (Some(snaps), Some(before), Some(reply), Some(tracer)) =
            (snaps, before, &reply, self.tracer.as_mut())
        {
            let live_miss: Vec<bool> = shard_misses(&snaps)
                .iter()
                .zip(&before)
                .map(|(a, b)| a > b)
                .collect();
            tracer.replay_suggest(&router, &snaps, req, reply, sample.wall_ms, &live_miss);
        }
        reply
    }

    /// Whether the loop has measured long enough: `--seconds` and the
    /// sample count the tail percentile needs.
    fn done(&self, start: Instant, min_samples: usize) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds && self.suggests.len() >= min_samples
    }

    fn traced_now(&self, start: Instant) -> bool {
        self.tracer.is_some() && start.elapsed().as_secs_f64() >= self.seconds / 2.0
    }

    /// Offers the tail batches one by one, each followed by
    /// `apply_deltas` (`fresh_ms`), and on `ingest_pers_k10` by two
    /// passes of personalized requests.
    fn write_phase(&mut self, server: &ShardedPqsDa, passes: bool) {
        for (b, batch) in self.world.tail_batches().iter().enumerate() {
            let traced = self.tracer.is_some() && (!passes || b % 2 == 0);
            let before = snapshots(server);
            let (report, sample) = self.meter.time_on(Fanout::Parallel, || {
                let offered = batch.iter().all(|e| server.ingest(e.clone()));
                (offered, server.apply_deltas())
            });
            self.out.attempted += 1;
            self.fresh.push(sample);
            let (offered, report) = report;
            if !offered || report.drained != batch.len() || !report.rolled_back.is_empty() {
                self.fail(format!("batch {b}: offered {offered}, swap {report:?}"));
            }
            if traced {
                let after = snapshots(server);
                if let Some(t) = self.tracer.as_mut() {
                    t.replay_delta(batch, &before, &after, sample.wall_ms);
                }
            }
            if !passes {
                continue;
            }
            let reqs = ingest_pass(&server.router_log(), batch, self.seed, b);
            let m0 = server.stats().cache;
            let first: Vec<_> = reqs
                .iter()
                .map(|r| self.serve_inproc(server, r, traced))
                .collect();
            let m1 = server.stats().cache;
            let second: Vec<_> = reqs
                .iter()
                .map(|r| self.serve_inproc(server, r, traced))
                .collect();
            let m2 = server.stats().cache;
            self.memo_hits += m2.hits - m0.hits;
            self.memo_misses += m2.misses - m0.misses;
            self.out.diagnostics.push((
                format!("pass1_misses.b{b}"),
                (m1.misses - m0.misses) as f64,
                "count",
            ));
            for ((req, a), b2) in reqs.iter().zip(&first).zip(&second) {
                let (Some(a), Some(b2)) = (a, b2) else {
                    continue;
                };
                let reference = server.suggest_on(req, &ALL_SHARDS);
                if !bits_equal(&a.suggestions, &reference.suggestions)
                    || !bits_equal(&b2.suggestions, &a.suggestions)
                {
                    self.fail(format!("batch {b}: reply differs from suggest_on"));
                }
            }
        }
    }

    /// After the write phase: unpersonalized replies must equal a cold
    /// build over the same log; personalized ones its candidate set.
    fn check_against_cold(&mut self, server: &ShardedPqsDa, reqs: &[SuggestRequest]) {
        let cold = ShardedPqsDa::build(&self.world.entries, serve_config());
        if server.router_log().records().len() != cold.router_log().records().len() {
            self.problem("post-write router log differs from the cold build");
            return;
        }
        for req in reqs {
            let anon = SuggestRequest {
                user: None,
                ..req.clone()
            };
            let live = server.suggest_on(&anon, &ALL_SHARDS);
            let want = cold.suggest_on(&anon, &ALL_SHARDS);
            if !bits_equal(&live.suggestions, &want.suggestions) {
                self.problem(format!(
                    "post-write reply differs from the cold build: {anon:?}"
                ));
            }
            // Personalization reranks each shard's diversified list, and
            // the warm-started profile differs from a cold-trained one,
            // so per shard only the candidate set must agree.
            if req.user.is_some() {
                for s in ALL_SHARDS {
                    let mut live = server.suggest_on(req, &[s]).ranked();
                    let mut want = cold.suggest_on(req, &[s]).ranked();
                    live.sort();
                    want.sort();
                    if live != want {
                        self.problem(format!(
                            "post-write candidate set differs on shard {s}: {req:?}"
                        ));
                    }
                }
            }
        }
    }

    /// The checks after a write phase, then the restart phase. Every
    /// restarted server answers one anonymous k=1 request and, when the
    /// requests are personalized, the first of them.
    fn check_and_restart(&mut self, writer: &ShardedPqsDa, reqs: &[SuggestRequest], dir: &Path) {
        self.check_against_cold(writer, reqs);
        let mut restart_reqs = vec![SuggestRequest {
            user: None,
            k: 1,
            ..reqs[0].clone()
        }];
        if reqs[0].user.is_some() {
            restart_reqs.push(reqs[0].clone());
        }
        self.restart_phase(writer, dir, &restart_reqs);
    }

    /// Saves the server once, then restarts it from the snapshot
    /// directory [`RESTARTS`] times, checking every restarted server's
    /// tags and replies against the live one.
    fn restart_phase(&mut self, server: &ShardedPqsDa, dir: &Path, reqs: &[SuggestRequest]) {
        let (saved, s) = self.meter.time(|| save_server(server, dir));
        let Ok(saved) = saved else {
            self.problem(format!("save_server failed: {saved:?}"));
            return;
        };
        self.store_save_ms = s.wall_ms;
        self.store_bytes = saved.total_bytes as f64;
        let tags = server.shard_tags();
        let live: Vec<ServeReply> = reqs
            .iter()
            .map(|r| server.suggest_on(r, &ALL_SHARDS))
            .collect();
        for i in 0..RESTARTS {
            let (loaded, sample) = self.meter.time(|| load_server(dir, *server.config(), true));
            self.out.attempted += 1;
            self.restarts.push(sample);
            let Ok((loaded, _)) = loaded else {
                self.fail(format!("restart {i}: load_server failed"));
                continue;
            };
            if loaded.shard_tags() != tags {
                self.fail(format!("restart {i}: shard tags differ"));
                continue;
            }
            for (req, want) in reqs.iter().zip(&live) {
                let got = loaded.suggest_on(req, &ALL_SHARDS);
                if !bits_equal(&got.suggestions, &want.suggestions) {
                    self.fail(format!(
                        "restart {i}: reply differs from the live server (personalized: {})",
                        req.user.is_some()
                    ));
                    break;
                }
            }
        }
    }
}

/// The run's temporary directory under the working directory, removed
/// when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: Workload) -> RunDir {
        let dir = PathBuf::from(".perfbench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        std::fs::remove_dir(".perfbench_tmp").ok();
    }
}

/// Thread-hosted shard servers plus the router connected to them.
struct NetDeployment {
    router: Option<NetRouter>,
    handles: Vec<ServerHandle>,
    addrs: Vec<NetAddr>,
}

impl NetDeployment {
    fn start(
        servers: Vec<Arc<ShardServer>>,
        router_log: QueryLog,
        dir: &Path,
        tag: &str,
    ) -> std::io::Result<NetDeployment> {
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for (s, server) in servers.into_iter().enumerate() {
            let h = server.spawn(&NetAddr::Uds(dir.join(format!("{tag}-s{s}.sock"))))?;
            addrs.push(h.addr().clone());
            handles.push(h);
        }
        let lists: Vec<Vec<NetAddr>> = addrs.iter().map(|a| vec![a.clone()]).collect();
        let router = NetRouter::connect(
            router_log,
            &lists,
            NetConfig {
                key: PartitionKey::User,
                build: serve_config().build,
                ..NetConfig::default()
            },
        );
        Ok(NetDeployment {
            router: Some(router),
            handles,
            addrs,
        })
    }

    fn router(&self) -> &NetRouter {
        self.router.as_ref().expect("router lives until stop")
    }

    /// Drops the router's connections, then stops and joins every server.
    fn stop(mut self) {
        self.router = None;
        for h in self.handles.drain(..) {
            h.stop();
        }
    }
}

fn shard_servers(snaps: &[Arc<ShardSnapshot>], dir: &Path) -> Vec<Arc<ShardServer>> {
    snaps
        .iter()
        .enumerate()
        .map(|(s, snap)| {
            ShardServer::new(
                Arc::clone(snap),
                ShardServerConfig::new(s, serve_config().build, dir.join(format!("stage{s}"))),
            )
        })
        .collect()
}

/// Runs one workload for `seconds` of measurement.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let run_dir = RunDir::new(workload);
    let mut setups: Vec<Vec<Sample>> = Vec::with_capacity(SETUP_REPS);
    let mut meter = Meter::new(workload.basis());

    // Set-up, SETUP_REPS times; the last one is measured. The world is
    // regenerated each time: it is part of set-up.
    let mut kept: Option<(World, ShardedPqsDa)> = None;
    let mut kept_net: Option<NetDeployment> = None;
    let mut cold_reqs: Vec<SuggestRequest> = Vec::new();
    for rep in 0..SETUP_REPS {
        let mut steps = Vec::new();
        let (world, s) = meter.time(World::generate);
        steps.push(s);
        let (server, s) = meter.time(|| ShardedPqsDa::build(world.prefix(), serve_config()));
        steps.push(s);
        let router = server.router_log();
        let deadline = || Some(Deadline::in_ms(DEADLINE_MS));
        match workload {
            Workload::HotK10 => {
                let pool = hot_pool(&router);
                let (_, s) = meter.time_on(Fanout::Parallel, || {
                    for &q in &pool {
                        server.suggest_with_deadline(&SuggestRequest::simple(q, 1), deadline());
                    }
                });
                steps.push(s);
            }
            Workload::ColdCtxK1 => {
                cold_reqs = cold_stream(&world, &server, seed);
                let (_, s) = meter.time_on(Fanout::Parallel, || {
                    for req in cold_reqs.iter().take(COLD_WARMUP) {
                        server.suggest_with_deadline(req, deadline());
                    }
                });
                steps.push(s);
            }
            Workload::NetHotK1 => {
                if let Some(old) = kept_net.take() {
                    old.stop();
                }
                let pool = hot_pool(&router);
                let (net, s) = meter.time_on(Fanout::Parallel, || {
                    let servers = shard_servers(&snapshots(&server), &run_dir.0);
                    let net = NetDeployment::start(
                        servers,
                        (*router).clone(),
                        &run_dir.0,
                        &format!("setup{rep}"),
                    )
                    .expect("spawn the shard servers");
                    for &q in &pool {
                        net.router()
                            .suggest_with_deadline(&SuggestRequest::simple(q, 1), deadline());
                    }
                    net
                });
                steps.push(s);
                kept_net = Some(net);
            }
            Workload::IngestPersK10 => {
                let prefix = world.prefix();
                let warm = ingest_pass(&router, &prefix[prefix.len() - 200..], seed, usize::MAX);
                let (_, s) = meter.time_on(Fanout::Parallel, || {
                    for req in &warm {
                        server.suggest_with_deadline(req, deadline());
                    }
                });
                steps.push(s);
            }
        }
        setups.push(steps);
        kept = Some((world, server));
    }
    let (world, server) = kept.expect("at least one set-up");

    let mut run = Run {
        seed,
        seconds,
        meter,
        tracer: trace.then(|| Tracer::new(server.config().build)),
        world: &world,
        suggests: Vec::new(),
        suggest_traced: Vec::new(),
        fresh: Vec::new(),
        restarts: Vec::new(),
        facets: Vec::new(),
        out: Outcome::default(),
        memo_hits: 0,
        memo_misses: 0,
        store_save_ms: 0.0,
        store_bytes: 0.0,
        net_admission: None,
    };
    let router = server.router_log();
    let min_samples = tail_min_samples(workload.tail_pct());
    let steal0 = crate::cpu::host_ticks();
    let stats0 = server.stats();
    let start = Instant::now();
    match workload {
        Workload::HotK10 | Workload::NetHotK1 => {
            let k = if workload == Workload::HotK10 { 10 } else { 1 };
            let pool = hot_pool(&router);
            if let Some(t) = run.tracer.as_mut() {
                let snaps = snapshots(&server);
                for &q in &pool {
                    t.warm(&router, &snaps, &SuggestRequest::simple(q, 1));
                }
            }
            let net = kept_net.as_ref();
            let clients: Vec<RemoteReplica> = match (net, trace) {
                (Some(n), true) => n
                    .addrs
                    .iter()
                    .map(|a| RemoteReplica::new(a.clone(), ClientConfig::default()))
                    .collect(),
                _ => Vec::new(),
            };
            let mut first: Vec<Option<ServeReply>> = vec![None; pool.len()];
            let mut cycle = 0u64;
            while !run.done(start, min_samples) {
                for i in hot_cycle(seed, cycle, pool.len()) {
                    let req = SuggestRequest::simple(pool[i], k);
                    let traced = run.traced_now(start);
                    let reply = match net {
                        None => run.serve_inproc(&server, &req, traced),
                        Some(n) => {
                            let (reply, sample) = run.serve(n.router(), &router, &req, traced);
                            if let (true, Some(r), Some(t)) = (traced, &reply, run.tracer.as_mut())
                            {
                                let snaps = snapshots(&server);
                                t.replay_net(
                                    &router,
                                    &clients,
                                    &snaps,
                                    &req,
                                    r,
                                    sample.wall_ms,
                                    DEADLINE_MS,
                                );
                            }
                            reply
                        }
                    };
                    let Some(reply) = reply else { continue };
                    match &first[i] {
                        None => first[i] = Some(reply),
                        Some(f) if !bits_equal(&f.suggestions, &reply.suggestions) => {
                            run.fail(format!("hot reply for pool[{i}] changed between requests"));
                        }
                        Some(_) => {}
                    }
                }
                cycle += 1;
            }
            let stats1 = server.stats();
            run.memo_hits = stats1.cache.hits - stats0.cache.hits;
            run.memo_misses = stats1.cache.misses - stats0.cache.misses;
            if run.memo_misses != 0 {
                run.problem(format!("{} memo misses after warm-up", run.memo_misses));
            }
            for (i, reply) in first.iter().enumerate() {
                let req = SuggestRequest::simple(pool[i], k);
                if let Some(reply) = reply {
                    let want = server.suggest_on(&req, &ALL_SHARDS);
                    if !bits_equal(&reply.suggestions, &want.suggestions) {
                        run.fail(format!("pool[{i}]: reply differs from suggest_on"));
                    }
                }
            }
            drop(clients);
        }
        Workload::ColdCtxK1 => {
            run.out
                .diagnostics
                .push(("cold_stream_len".into(), cold_reqs.len() as f64, "count"));
            // Fixed work: the whole measured stream, so every seed times
            // the same requests; traced runs replay its second half.
            let measured = &cold_reqs[COLD_WARMUP.min(cold_reqs.len())..];
            if measured.len() < min_samples {
                run.problem(format!("cold stream has only {} requests", measured.len()));
            }
            let mut served = Vec::new();
            for (i, req) in measured.iter().enumerate() {
                let traced = run.tracer.is_some() && i >= measured.len() / 2;
                if let Some(reply) = run.serve_inproc(&server, req, traced) {
                    served.push((req, reply));
                }
            }
            let stats1 = server.stats();
            run.memo_hits = stats1.cache.hits - stats0.cache.hits;
            run.memo_misses = stats1.cache.misses - stats0.cache.misses;
            if run.memo_hits != 0 {
                run.problem(format!(
                    "{} memo hits on a stream of new seed sets",
                    run.memo_hits
                ));
            }
            for (req, reply) in &served {
                let want = server.suggest_on(req, &ALL_SHARDS);
                if !bits_equal(&reply.suggestions, &want.suggestions) {
                    run.fail("cold reply differs from suggest_on");
                }
            }
        }
        Workload::IngestPersK10 => {
            if let Some(t) = run.tracer.as_mut() {
                t.replay_train(world.prefix(), &snapshots(&server));
            }
        }
    }

    match (workload, kept_net.take()) {
        (Workload::NetHotK1, Some(net)) => {
            net_write_and_restart(&mut run, &server, net, &run_dir.0);
        }
        (Workload::IngestPersK10, _) => {
            run.write_phase(&server, true);
            let batches = world.tail_batches();
            let last = batches.last().expect("tail batches");
            let reqs = ingest_pass(&server.router_log(), last, seed, batches.len());
            run.check_and_restart(&server, &reqs, &run_dir.0.join("snapshot"));
        }
        _ => {
            let req = match workload {
                Workload::HotK10 => SuggestRequest::simple(hot_pool(&router)[0], 10),
                _ => cold_reqs[COLD_WARMUP].clone(),
            };
            run.write_phase(&server, false);
            run.check_and_restart(&server, &[req], &run_dir.0.join("snapshot"));
        }
    }
    let steal_pct = crate::cpu::host_ticks().since(&steal0) * 100.0;
    finish(run, workload, &server, &setups, steal_pct, trace)
}

/// The socket deployment's write and restart phases: deltas shipped by
/// the router to the shard servers, checked against the in-process
/// server taking the same batches; restart = shard servers reloaded from
/// snapshot files and the router reconnected.
fn net_write_and_restart(run: &mut Run, server: &ShardedPqsDa, net: NetDeployment, dir: &Path) {
    run.net_admission = Some(net.router().stats().admission);
    for (b, batch) in run.world.tail_batches().iter().enumerate() {
        let (report, sample) = run.meter.time(|| {
            let offered = batch.iter().all(|e| net.router().ingest(e.clone()));
            (offered, net.router().apply_deltas())
        });
        run.out.attempted += 1;
        run.fresh.push(sample);
        let (offered, report) = report;
        if !offered || report.drained != batch.len() {
            run.fail(format!("net batch {b}: offered {offered}, swap {report:?}"));
        }
        for e in batch {
            server.ingest(e.clone());
        }
        server.apply_deltas();
    }
    let pool = hot_pool(&server.router_log());
    let router = server.router_log();
    for &q in pool.iter().take(8) {
        let req = SuggestRequest::simple(q, 1);
        let got = net.router().suggest(&req);
        let want = server.suggest_on(&req, &ALL_SHARDS);
        if !got
            .reply()
            .is_some_and(|r| bits_equal(&r.suggestions, &want.suggestions))
        {
            run.problem("net reply after deltas differs from the in-process server");
        }
    }
    net.stop();

    let snap_dir = dir.join("snapshot");
    let (saved, s) = run.meter.time(|| save_server(server, &snap_dir));
    match saved {
        Ok(saved) => {
            run.store_save_ms = s.wall_ms;
            run.store_bytes = saved.total_bytes as f64;
        }
        Err(e) => {
            run.problem(format!("save_server failed: {e}"));
            return;
        }
    }
    let req = SuggestRequest::simple(pool[0], 1);
    let want = server.suggest_on(&req, &ALL_SHARDS);
    for i in 0..RESTARTS {
        let log = (*router).clone();
        let (deployed, sample) = run.meter.time(|| {
            let servers: Result<Vec<_>, _> = (0..SHARDS)
                .map(|s| {
                    ShardServer::from_snapshot_file(
                        &snap_dir.join(shard_file(s)),
                        ShardServerConfig::new(s, serve_config().build, dir.join(format!("rs{s}"))),
                    )
                })
                .collect();
            let servers = servers.map_err(|e| std::io::Error::other(e.to_string()))?;
            let net = NetDeployment::start(servers, log, dir, &format!("restart{i}"))?;
            let pings = net.router().ping_all();
            Ok::<_, std::io::Error>((net, pings))
        });
        run.out.attempted += 1;
        run.restarts.push(sample);
        match deployed {
            Ok((net, pings)) => {
                let got = net.router().suggest(&req);
                if pings.iter().flatten().any(Result::is_err)
                    || !got
                        .reply()
                        .is_some_and(|r| bits_equal(&r.suggestions, &want.suggestions))
                {
                    run.fail(format!("restart {i}: restarted deployment disagrees"));
                }
                net.stop();
            }
            Err(e) => run.fail(format!("restart {i}: {e}")),
        }
    }
}

fn finish(
    run: Run,
    workload: Workload,
    server: &ShardedPqsDa,
    setups: &[Vec<Sample>],
    steal_pct: f64,
    trace: bool,
) -> Outcome {
    let Run {
        meter,
        tracer,
        suggests,
        suggest_traced,
        fresh,
        restarts,
        facets,
        mut out,
        memo_hits,
        memo_misses,
        store_save_ms,
        store_bytes,
        net_admission,
        ..
    } = run;
    let pct = workload.tail_pct();
    let ms: Vec<f64> = suggests.iter().map(|s| meter.ms(s)).collect();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|steps| steps.iter().map(|s| meter.ms(s)).sum::<f64>() / 1e3)
        .collect();
    let setup_wall_s: Vec<f64> = setups
        .iter()
        .map(|steps| steps.iter().map(|s| s.wall_ms).sum::<f64>() / 1e3)
        .collect();
    let wall: Vec<f64> = suggests.iter().map(|s| s.wall_ms).collect();
    let cpu_norm: f64 =
        suggests.iter().map(|s| meter.cpu(s)).sum::<f64>() / suggests.len().max(1) as f64;
    let cpu_wall: f64 =
        suggests.iter().map(|s| s.cpu_ms).sum::<f64>() / suggests.len().max(1) as f64;
    let tail_of = |xs: &[f64]| tail(xs, pct).unwrap_or(f64::NAN);
    let fresh_ms = median(&fresh.iter().map(|s| meter.ms(s)).collect::<Vec<_>>());
    // A restart is mmap and syscall work, which does not share the drift
    // of cache-bound arithmetic: it is reported on the wall clock.
    let restart_ms = median(&restarts.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    out.end_to_end = vec![
        ("setup_s".into(), median(&setup_s), "s"),
        ("suggest_p50_ms".into(), median(&ms), "ms"),
        ("cpu_ms_per_req".into(), cpu_norm, "ms"),
        ("facets_at10".into(), mean(&facets), "facets"),
    ];
    let stats = server.stats();
    let admission = net_admission.unwrap_or(stats.admission);
    let ref_ms = &meter.ref2_ms;
    let mut diag = vec![
        (
            "basis_normalized".to_string(),
            (meter.basis() == Basis::HostNormalized) as u8 as f64,
            "bool",
        ),
        ("tail_percentile".into(), pct, "pct"),
        ("suggest_tail_ms".into(), tail_of(&ms), "ms"),
        ("fresh_ms".into(), fresh_ms, "ms"),
        ("restart_ms".into(), restart_ms, "ms"),
        ("suggest_samples".into(), suggests.len() as f64, "count"),
        ("host.ref_ms".into(), median(ref_ms), "ms"),
        ("host.ref_iqr_pct".into(), iqr_share(ref_ms) * 100.0, "pct"),
        ("host.steal_pct".into(), steal_pct, "pct"),
        ("wall.setup_s".into(), median(&setup_wall_s), "s"),
        ("wall.suggest_p50_ms".into(), median(&wall), "ms"),
        ("wall.suggest_tail_ms".into(), tail_of(&wall), "ms"),
        ("wall.cpu_ms_per_req".into(), cpu_wall, "ms"),
        (
            "wall.fresh_ms".into(),
            median(&fresh.iter().map(|s| s.wall_ms).collect::<Vec<_>>()),
            "ms",
        ),
        ("memo.hits".into(), memo_hits as f64, "count"),
        ("memo.misses".into(), memo_misses as f64, "count"),
        (
            "admission.admitted".into(),
            admission.admitted as f64,
            "count",
        ),
        ("admission.shed".into(), admission.shed as f64, "count"),
        (
            "coalesce.leaders".into(),
            stats.coalesce.leaders as f64,
            "count",
        ),
        (
            "coalesce.coalesced".into(),
            stats.coalesce.coalesced as f64,
            "count",
        ),
    ];
    diag.extend(std::mem::take(&mut out.diagnostics));
    out.diagnostics = diag;

    if let (true, Some(t)) = (trace, tracer) {
        let selfs = t.self_times();
        let med = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
        let val_med = |name: &str| t.values.get(name).map_or(0.0, |v| median(v));
        let val_mean = |name: &str| t.values.get(name).map_or(0.0, |v| mean(v));
        let traced_wall: Vec<f64> = suggests
            .iter()
            .zip(&suggest_traced)
            .filter(|(_, &tr)| tr)
            .map(|(s, _)| s.wall_ms)
            .collect();
        let plain_wall: Vec<f64> = suggests
            .iter()
            .zip(&suggest_traced)
            .filter(|(_, &tr)| !tr)
            .map(|(s, _)| s.wall_ms)
            .collect();
        let overhead = if traced_wall.is_empty() || plain_wall.is_empty() {
            0.0
        } else {
            (median(&traced_wall) / median(&plain_wall) - 1.0) * 100.0
        };
        let e2e = val_med("trace.e2e_us");
        let residual = val_med("trace.residual_us");
        // `serve.probe_us` is inclusive: the probe with its stage children
        // (net runs time `shard_probe` directly).
        let probe = match t.values.get("serve.probe_us") {
            Some(v) => median(v),
            None => median(
                &t.spans()
                    .iter()
                    .filter(|s| s.name == "serve.probe")
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
        };
        let hit_ratio = if memo_hits + memo_misses == 0 {
            0.0
        } else {
            memo_hits as f64 / (memo_hits + memo_misses) as f64
        };
        out.per_layer = vec![
            (
                "querylog.append_ms".into(),
                med("querylog.append") / 1e3,
                "ms",
            ),
            ("graph.expand_us".into(), med("graph.expand"), "us"),
            (
                "graph.expand_queries".into(),
                val_mean("graph.expand_queries"),
                "count",
            ),
            ("graph.delta_ms".into(), med("graph.delta") / 1e3, "ms"),
            (
                "linalg.cg_iters".into(),
                val_mean("linalg.cg_iters"),
                "count",
            ),
            ("linalg.cg_us".into(), med("linalg.cg"), "us"),
            ("core.prep_us".into(), med("core.prep"), "us"),
            ("core.relevance_us".into(), med("core.relevance"), "us"),
            ("core.alg1_us".into(), med("core.alg1"), "us"),
            (
                "core.alg1_rounds".into(),
                val_mean("core.alg1_rounds"),
                "count",
            ),
            ("core.rerank_us".into(), med("core.rerank"), "us"),
            ("core.memo_hit_ratio".into(), hit_ratio, "ratio"),
            ("topics.train_ms".into(), med("topics.train") / 1e3, "ms"),
            (
                "topics.retrain_ms".into(),
                med("topics.retrain") / 1e3,
                "ms",
            ),
            ("serve.probe_us".into(), probe, "us"),
            ("serve.merge_us".into(), med("serve.merge"), "us"),
            ("serve.gather_us".into(), val_med("serve.gather_us"), "us"),
            ("serve.swap_ms".into(), val_med("serve.swap_ms"), "ms"),
            (
                "serve.swap_residual_ms".into(),
                val_med("serve.swap_residual_ms"),
                "ms",
            ),
            (
                "parallel.handoff_us".into(),
                val_med("parallel.handoff_us"),
                "us",
            ),
            ("store.save_ms".into(), store_save_ms, "ms"),
            (
                "store.load_ms".into(),
                median(&restarts.iter().map(|s| s.wall_ms).collect::<Vec<_>>()),
                "ms",
            ),
            ("store.bytes".into(), store_bytes, "bytes"),
            ("net.encode_us".into(), med("net.encode"), "us"),
            ("net.decode_us".into(), med("net.decode"), "us"),
            (
                "net.frame_bytes".into(),
                val_mean("net.frame_bytes"),
                "bytes",
            ),
            ("net.rtt_us".into(), val_med("net.rtt_us"), "us"),
            ("net.transport_us".into(), val_med("net.transport_us"), "us"),
            ("net.router_us".into(), val_med("net.router_us"), "us"),
            ("trace.e2e_us".into(), e2e, "us"),
            ("trace.residual_us".into(), residual, "us"),
            (
                "trace.residual_pct".into(),
                if e2e > 0.0 {
                    residual / e2e * 100.0
                } else {
                    0.0
                },
                "pct",
            ),
            ("trace.overhead_pct".into(), overhead, "pct"),
            ("trace.replayed".into(), t.replayed as f64, "count"),
            ("trace.mismatches".into(), t.mismatches as f64, "count"),
            (
                "trace.memo_disagreements".into(),
                t.memo_disagreements as f64,
                "count",
            ),
        ];
        for (n, v, u) in &out.diagnostics {
            if n.starts_with("host.")
                || n.starts_with("wall.")
                || n.starts_with("memo.")
                || n.starts_with("admission.")
                || n.starts_with("coalesce.")
            {
                out.per_layer.push((n.clone(), *v, u));
            }
        }
        if t.mismatches > 0 {
            out.problems.push(format!(
                "{} replays differ from the served result",
                t.mismatches
            ));
        }
        for (name, v) in &selfs {
            out.self_time
                .push((name.to_string(), v.len(), v.iter().sum::<f64>() / 1e3));
        }
        let path = PathBuf::from(".perfbench_out").join(format!("spans-{}.tsv", workload.name()));
        if let Err(e) = t.write_spans(&path) {
            out.problems.push(format!("writing spans: {e}"));
        }
        out.diagnostics
            .push(("trace.replay_ms".into(), t.replay_ms, "ms"));
    }
    out
}
