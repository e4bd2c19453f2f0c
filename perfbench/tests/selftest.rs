//! Self-tests of the benchmark: input determinism, the memo invariants
//! each workload relies on, the reference kernel, and the statistics.

use pqsda_baselines::SuggestRequest;
use pqsda_parallel::Deadline;
use pqsda_perfbench::kernel::RefKernel;
use pqsda_perfbench::stats::{quartiles, tail, tail_min_samples, tail_rank, TAIL_MIN_BEYOND};
use pqsda_perfbench::world::{
    cold_stream, hot_cycle, hot_pool, ingest_pass, serve_config, World, COLD_REQUESTS, COLD_WARMUP,
    HOT_POOL, SHARDS,
};
use pqsda_querylog::QueryId;
use pqsda_serve::ShardedPqsDa;
use std::collections::HashSet;

/// Requests compared by their full debug form (the type has no `Eq`).
fn shown(reqs: &[SuggestRequest]) -> Vec<String> {
    reqs.iter().map(|r| format!("{r:?}")).collect()
}

fn server(world: &World) -> ShardedPqsDa {
    ShardedPqsDa::build(world.prefix(), serve_config())
}

#[test]
fn request_streams_are_deterministic_per_seed_and_differ_across_seeds() {
    let world = World::generate();
    let s = server(&world);
    for cycle in 0..3 {
        assert_eq!(hot_cycle(7, cycle, HOT_POOL), hot_cycle(7, cycle, HOT_POOL));
        assert_ne!(hot_cycle(7, cycle, HOT_POOL), hot_cycle(8, cycle, HOT_POOL));
    }
    let cold = |seed| shown(&cold_stream(&world, &s, seed));
    assert_eq!(cold(7), cold(7));
    assert_ne!(cold(7), cold(8));
    let router = s.router_log();
    let batch = &world.prefix()[world.prefix().len() - 200..];
    let pass = |seed| shown(&ingest_pass(&router, batch, seed, 3));
    assert_eq!(pass(7), pass(7));
    assert_ne!(pass(7), pass(8));
    // The hot pool is chosen by popularity, identically on every seed.
    assert_eq!(hot_pool(&router).len(), HOT_POOL);
}

#[test]
fn cold_stream_repeats_no_seed_set_and_never_hits_the_memo() {
    let world = World::generate();
    let s = server(&world);
    let stream = cold_stream(&world, &s, 3);
    assert_eq!(stream.len(), COLD_WARMUP + COLD_REQUESTS);
    let router = s.router_log();
    let mut keys = HashSet::new();
    for req in &stream {
        assert_eq!(req.context.len(), 1);
        for shard in 0..SHARDS {
            let snap = s.shard_snapshot(shard);
            let log = snap.engine.log();
            if let Some(q) = log.find_query(router.query_text(req.query)) {
                let mut key = vec![q];
                key.extend(log.find_query(router.query_text(req.context[0])));
                assert!(keys.insert((shard, key)), "seed set repeats: {req:?}");
            }
        }
    }
    for req in stream.iter().take(24) {
        let out = s.suggest_with_deadline(req, Some(Deadline::in_ms(60_000)));
        assert!(out.reply().is_some_and(|r| !r.coverage.is_degraded()));
    }
    let cache = s.stats().cache;
    assert_eq!(cache.hits, 0);
    assert!(cache.misses > 0);
}

#[test]
fn hot_pool_has_no_memo_misses_after_warm_up() {
    let world = World::generate();
    let s = server(&world);
    let pool: Vec<QueryId> = hot_pool(&s.router_log());
    for &q in &pool {
        s.suggest(&SuggestRequest::simple(q, 1));
    }
    let warm = s.stats().cache;
    for i in hot_cycle(5, 0, pool.len()).into_iter().take(6) {
        let out = s.suggest_with_deadline(
            &SuggestRequest::simple(pool[i], 10),
            Some(Deadline::in_ms(60_000)),
        );
        assert!(out.reply().is_some());
    }
    let after = s.stats().cache;
    assert_eq!(after.misses, warm.misses);
    assert!(after.hits > warm.hits);
}

#[test]
fn reference_kernel_checksum_is_fixed() {
    let mut k = RefKernel::new();
    let first = k.pass();
    assert_eq!(first.to_bits(), k.pass().to_bits());
    assert_eq!(first.to_bits(), REF_CHECKSUM_BITS, "checksum {first:e}");
}

/// The output checksum of one pass over the seeded reference matrix.
const REF_CHECKSUM_BITS: u64 = 0x3fed_2eb4_c9ee_b19a;

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    for pct in [50.0, 90.0, 95.0, 97.0, 99.0, 99.9] {
        let min = tail_min_samples(pct);
        assert!(tail_rank(min - 1, pct).is_none());
        for n in 1..3000 {
            if let Some(i) = tail_rank(n, pct) {
                assert!(n - 1 - i >= TAIL_MIN_BEYOND, "n {n} pct {pct}");
                assert!(n >= min);
                let xs: Vec<f64> = (0..n).map(|x| x as f64).collect();
                let t = tail(&xs, pct).expect("rank exists");
                assert!(xs.iter().filter(|&&x| x > t).count() >= TAIL_MIN_BEYOND);
            }
        }
    }
    assert_eq!(tail_min_samples(99.0), 1000);
    assert_eq!(tail_min_samples(95.0), 200);
    assert_eq!(tail_min_samples(97.0), 334);
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
}
