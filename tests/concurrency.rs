//! Concurrency tests: the engine is an online service in the paper's
//! deployment story (§VI-D), so it must serve suggestion requests from many
//! threads at once, and the parallel UPM trainer must scale without
//! changing results.

use pqsda::{PqsDa, PqsDaConfig};
use pqsda_baselines::{SuggestRequest, Suggester};
use pqsda_graph::compact::CompactConfig;
use pqsda_graph::multi::MultiBipartite;
use pqsda_graph::weighting::WeightingScheme;
use pqsda_querylog::synth::{generate, SynthConfig};
use pqsda_querylog::QueryId;
use pqsda_topics::{Corpus, TopicModel, TrainConfig, Upm, UpmConfig};

#[test]
fn engine_serves_concurrent_requests_consistently() {
    let synth = generate(&SynthConfig::tiny(41));
    let multi = MultiBipartite::build(&synth.log, &synth.truth.sessions, WeightingScheme::CfIqf);
    let engine = PqsDa::new(
        synth.log.clone(),
        multi,
        None,
        PqsDaConfig {
            compact: CompactConfig {
                max_queries: 64,
                max_rounds: 2,
            },
            ..PqsDaConfig::default()
        },
    );

    let queries: Vec<QueryId> = (0..synth.log.num_queries())
        .step_by(17)
        .map(QueryId::from_index)
        .collect();

    // Reference answers, computed single-threaded.
    let expected: Vec<Vec<QueryId>> = queries
        .iter()
        .map(|&q| engine.suggest(&SuggestRequest::simple(q, 6)))
        .collect();

    // Hammer the same engine from 8 threads; every thread must see exactly
    // the single-threaded answers (the compact-representation cache is
    // shared state — this exercises it under contention).
    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, &q) in queries.iter().enumerate() {
                        let got = engine.suggest(&SuggestRequest::simple(q, 6));
                        assert_eq!(
                            got, expected[i],
                            "thread {t} round {round} query {q:?} diverged"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn parallel_upm_matches_sequential_on_a_real_corpus() {
    let synth = generate(&SynthConfig::tiny(43));
    let corpus = Corpus::build(&synth.log, &synth.truth.sessions);
    let cfg = |threads: usize| UpmConfig {
        base: TrainConfig {
            num_topics: 4,
            iterations: 20,
            seed: 3,
            ..TrainConfig::default()
        },
        hyper_every: 10,
        hyper_iterations: 5,
        threads,
    };
    let seq = Upm::train(&corpus, &cfg(1));
    let par = Upm::train(&corpus, &cfg(8));
    assert_eq!(seq.alpha(), par.alpha());
    for d in (0..corpus.num_docs()).step_by(5) {
        assert_eq!(seq.doc_topic(d), par.doc_topic(d), "doc {d}");
    }
    for z in 0..4 {
        assert_eq!(seq.beta_k(z), par.beta_k(z), "topic {z}");
    }
}

#[test]
fn sharded_cache_stays_bounded_under_hammering() {
    use pqsda::{CacheConfig, ShardedLruCache};

    let cache: ShardedLruCache<u64, Vec<u64>> = ShardedLruCache::new(CacheConfig {
        shards: 4,
        capacity: 32,
    });
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    // Overlapping key streams: plenty of hits, misses and
                    // evictions racing across all shards.
                    let key = (i * 7 + t) % 257;
                    let v = cache.get_or_insert_with(key, || vec![key; 3]);
                    assert_eq!(v[0], key, "thread {t} got a value for the wrong key");
                }
            });
        }
    });

    assert!(
        cache.len() <= cache.num_shards() * cache.per_shard_capacity(),
        "cache overgrew its bound: len = {}",
        cache.len()
    );
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, 8 * 2_000);
    assert!(s.evictions > 0, "the workload must have forced evictions");
}

#[test]
fn suggest_many_matches_serial_suggest() {
    let synth = generate(&SynthConfig::tiny(47));
    let multi = MultiBipartite::build(&synth.log, &synth.truth.sessions, WeightingScheme::CfIqf);
    let engine = PqsDa::new(
        synth.log.clone(),
        multi,
        None,
        PqsDaConfig {
            compact: CompactConfig {
                max_queries: 64,
                max_rounds: 2,
            },
            ..PqsDaConfig::default()
        },
    );
    let reqs: Vec<SuggestRequest> = (0..synth.log.num_queries())
        .step_by(11)
        .map(|q| SuggestRequest::simple(QueryId::from_index(q), 5))
        .collect();

    let serial: Vec<_> = reqs.iter().map(|r| engine.suggest(r)).collect();
    for threads in [1usize, 8] {
        assert_eq!(
            engine.suggest_many_with_threads(&reqs, threads),
            serial,
            "batched answers diverged at {threads} threads"
        );
    }
    // The engine-level memo must have been shared across the batch.
    assert!(engine.cache_stats().hits > 0);
}
