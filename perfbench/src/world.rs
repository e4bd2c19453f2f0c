//! The benchmark's inputs: one fixed synthetic world and the seeded
//! request streams of each workload.
//!
//! The world (Small scale, [`WORLD_SEED`]) is the same on every run, so
//! `--seed` moves only the request streams: which requests are sent and
//! in what order. A world drawn per seed would move the medians by the
//! world's shape rather than by the code under test.

use crate::kernel::splitmix64;
use pqsda::{EngineBuildOptions, ProfileTrainOptions};
use pqsda_baselines::SuggestRequest;
use pqsda_bench::Scale;
use pqsda_querylog::synth::{generate, SyntheticLog};
use pqsda_querylog::{LogEntry, QueryId, QueryLog};
use pqsda_serve::{PartitionKey, ServeConfig, ShardedPqsDa};
use std::collections::{HashMap, HashSet};

/// Seed of the synthetic world (fixed; `--seed` drives the streams).
pub const WORLD_SEED: u64 = 42;
/// Shards of every server (user-keyed).
pub const SHARDS: usize = 2;
/// The one generous deadline every suggest request carries.
pub const DEADLINE_MS: u64 = 5_000;
/// Clicked queries in the hot pool (the memo holds 512 seed sets).
pub const HOT_POOL: usize = 32;
/// Tail batches offered after the 90 % prefix.
pub const TAIL_BATCHES: usize = 24;
/// Personalized requests per pass on `ingest_pers_k10`.
pub const INGEST_PASS: usize = 5;
/// Cold-stream requests served as warm-up before measuring.
pub const COLD_WARMUP: usize = 16;
/// Measured cold-stream requests (fixed work, ≈ 15 s on 2 vCPUs).
pub const COLD_REQUESTS: usize = 1200;

/// The generated world, its chronological entries and the ground-truth
/// facets of every query text.
pub struct World {
    /// Generated log and ground truth.
    pub synth: SyntheticLog,
    /// Every entry, chronological.
    pub entries: Vec<LogEntry>,
    facets: HashMap<String, Vec<u32>>,
}

impl World {
    /// Generates the world.
    pub fn generate() -> World {
        let synth = generate(&Scale::Small.synth_config(WORLD_SEED));
        let mut entries = synth.log.entries();
        entries.sort_by_key(|e| e.timestamp);
        let facets = (0..synth.log.num_queries())
            .map(|q| {
                let q = QueryId::from_index(q);
                (
                    synth.log.query_text(q).to_owned(),
                    synth.truth.query_facets[q.index()].clone(),
                )
            })
            .collect();
        World {
            synth,
            entries,
            facets,
        }
    }

    /// Entries in the first 90 % of the chronological log.
    pub fn prefix(&self) -> &[LogEntry] {
        &self.entries[..self.entries.len() * 9 / 10]
    }

    /// The remaining 10 % in [`TAIL_BATCHES`] fixed, chronological batches.
    pub fn tail_batches(&self) -> Vec<Vec<LogEntry>> {
        let tail = &self.entries[self.prefix().len()..];
        tail.chunks(tail.len().div_ceil(TAIL_BATCHES))
            .map(<[LogEntry]>::to_vec)
            .collect()
    }

    /// Distinct ground-truth facets over the suggested query texts.
    pub fn distinct_facets<'a>(&self, texts: impl IntoIterator<Item = &'a str>) -> usize {
        let mut seen = HashSet::new();
        for t in texts {
            if let Some(fs) = self.facets.get(t) {
                seen.extend(fs.iter().copied());
            }
        }
        seen.len()
    }
}

/// The one server recipe of every workload: 2 user-keyed shards, engine
/// defaults, UPM personalization (anonymous requests bypass the rerank).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        key: PartitionKey::User,
        build: EngineBuildOptions {
            personalize: Some(ProfileTrainOptions::default()),
            ..EngineBuildOptions::default()
        },
        ..ServeConfig::default()
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed ^ 0xA5A5_5A5A_0F0F_F0F0;
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The hot pool: the [`HOT_POOL`] most-clicked queries of the router
/// log (ties by text). Popularity, not the seed, picks the pool; the
/// seed orders the requests.
pub fn hot_pool(router: &QueryLog) -> Vec<QueryId> {
    let mut clicks = vec![0usize; router.num_queries()];
    for r in router.records() {
        if r.click.is_some() {
            clicks[r.query.index()] += 1;
        }
    }
    let mut pool: Vec<QueryId> = (0..router.num_queries())
        .filter(|&q| clicks[q] > 0)
        .map(QueryId::from_index)
        .collect();
    pool.sort_by(|a, b| {
        clicks[b.index()]
            .cmp(&clicks[a.index()])
            .then_with(|| router.query_text(*a).cmp(router.query_text(*b)))
    });
    pool.truncate(HOT_POOL);
    pool
}

/// Pool indices in request order for cycle `cycle`: every cycle sends
/// each pool query once, so a run's request multiset is the same on
/// every seed up to the number of cycles.
pub fn hot_cycle(seed: u64, cycle: u64, pool_len: usize) -> Vec<usize> {
    permutation(seed.wrapping_mul(0x9E37_79B9).wrapping_add(cycle), pool_len)
}

/// The `cold_ctx_k1` stream: [`COLD_WARMUP`] warm-up requests, then
/// [`COLD_REQUESTS`] measured ones in seeded order. Each is a session
/// pair (a query plus one earlier query of the same session as context),
/// kept only when the seed set it gives every shard is new — so no
/// shard's expansion memo is ever hit. The pairs are taken in log order,
/// so every seed measures the same requests, only in another order.
pub fn cold_stream(world: &World, server: &ShardedPqsDa, seed: u64) -> Vec<SuggestRequest> {
    let router = server.router_log();
    let shard_logs: Vec<_> = (0..SHARDS).map(|s| server.shard_snapshot(s)).collect();
    let log = &world.synth.log;
    let mut pairs = Vec::new();
    let mut seen_pairs = HashSet::new();
    for session in &world.synth.truth.sessions {
        let recs = &session.record_indices;
        for j in 1..recs.len() {
            for &ri in &recs[..j] {
                let (rq, rc) = (&log.records()[recs[j]], &log.records()[ri]);
                if rq.query == rc.query || !seen_pairs.insert((rq.query, rc.query)) {
                    continue;
                }
                let (Some(q), Some(c)) = (
                    router.find_query(log.query_text(rq.query)),
                    router.find_query(log.query_text(rc.query)),
                ) else {
                    continue;
                };
                pairs.push((q, c, rq.timestamp, rc.timestamp));
            }
        }
    }
    let mut keys: HashSet<(usize, Vec<QueryId>)> = HashSet::new();
    let mut out = Vec::new();
    for (q, c, tq, tc) in pairs {
        let mut pair_keys = Vec::new();
        for (s, snap) in shard_logs.iter().enumerate() {
            let shard_log = snap.engine.log();
            let Some(lq) = shard_log.find_query(router.query_text(q)) else {
                continue;
            };
            let mut key = vec![lq];
            if let Some(lc) = shard_log.find_query(router.query_text(c)) {
                key.push(lc);
            }
            pair_keys.push((s, key));
        }
        if pair_keys.iter().any(|k| keys.contains(k)) {
            continue;
        }
        keys.extend(pair_keys);
        out.push(SuggestRequest::simple(q, 1).with_context(vec![c], vec![tc], tq));
        if out.len() == COLD_WARMUP + COLD_REQUESTS {
            break;
        }
    }
    let measured = out.split_off(COLD_WARMUP.min(out.len()));
    out.extend(
        permutation(seed, measured.len())
            .into_iter()
            .map(|i| measured[i].clone()),
    );
    out
}

/// The personalized requests of one `ingest_pers_k10` pass after batch
/// `batch`: the batch's first [`INGEST_PASS`] distinct (user, query)
/// pairs — the newest activity — in seeded order. Every seed sends the
/// same requests, only in another order.
pub fn ingest_pass(
    router: &QueryLog,
    entries: &[LogEntry],
    seed: u64,
    batch: usize,
) -> Vec<SuggestRequest> {
    let mut seen = HashSet::new();
    let mut picked = Vec::new();
    for e in entries {
        let Some(q) = router.find_query(&e.query) else {
            continue;
        };
        if seen.insert((e.user, q)) {
            picked.push(SuggestRequest::simple(q, 10).for_user(e.user));
            if picked.len() == INGEST_PASS {
                break;
            }
        }
    }
    permutation(
        seed ^ (batch as u64).wrapping_mul(0x2545_F491),
        picked.len(),
    )
    .into_iter()
    .map(|i| picked[i].clone())
    .collect()
}
