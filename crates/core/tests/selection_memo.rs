//! The selection memo's exactness gate.
//!
//! Each expansion-memo entry keeps its last few Algorithm 1 selections,
//! keyed by the request's resolved context (local index and age, in
//! request order) and `k`. A reply served from that memo must be the
//! reply a fresh engine computes for the request alone. The property test
//! drives random request streams through one long-lived engine — every
//! `k` in {1, 2, 5, 10}, anonymous, personalized and contextual requests
//! under all three backends, duplicate context entries, context equal to
//! the input, the same seeds at other ages or in another order, repeats,
//! and the whole stream again in reverse — and compares every reply's ids
//! and score bits with a fresh engine's.

use pqsda::{EngineBuildOptions, PqsDa, PqsDaConfig, ProfileTrainOptions};
use pqsda_baselines::{Backend, SuggestRequest};
use pqsda_querylog::synth::{generate, SynthConfig};
use pqsda_querylog::{QueryId, UserId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 4] = [1, 2, 5, 10];
const BACKENDS: [Backend; 3] = [Backend::Eq15, Backend::IntentFused, Backend::BiRank];
/// Request timestamp; context ages are drawn below it.
const NOW: u64 = 10_000;

fn bits(list: &[(QueryId, f64)]) -> Vec<(QueryId, u64)> {
    list.iter().map(|&(q, s)| (q, s.to_bits())).collect()
}

/// An engine over the same log, representation and personalizer with an
/// empty memo.
fn fresh(engine: &PqsDa) -> PqsDa {
    PqsDa::new(
        engine.log().clone(),
        engine.multi().clone(),
        engine.personalizer().cloned(),
        PqsDaConfig::default(),
    )
}

fn with_ages(req: SuggestRequest, context: Vec<QueryId>, ages: &[u64]) -> SuggestRequest {
    let times = ages.iter().map(|&a| NOW - a).collect();
    req.with_context(context, times, NOW)
}

/// A request stream whose seed sets repeat: queries come from a small
/// pool, and each base request is followed by a variant sharing its seeds
/// — the same request again, another `k`, other context ages, or the
/// context reversed.
fn stream(num_queries: usize, num_users: usize, seed: u64) -> Vec<SuggestRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool: Vec<QueryId> = (0..6)
        .map(|_| QueryId::from_index(rng.gen_range(0..num_queries)))
        .collect();
    let pick = |rng: &mut SmallRng| pool[rng.gen_range(0..pool.len())];
    let mut reqs = Vec::new();
    for _ in 0..20 {
        let query = pick(&mut rng);
        let k = KS[rng.gen_range(0..KS.len())];
        let mut req = SuggestRequest::simple(query, k).with_backend(BACKENDS[rng.gen_range(0..3)]);
        if rng.gen_bool(0.5) {
            req = req.for_user(UserId::from_index(rng.gen_range(0..num_users)));
        }
        let context = match rng.gen_range(0..4) {
            0 => Vec::new(),
            1 => vec![pick(&mut rng)],
            2 => vec![query],
            _ => {
                let c = pick(&mut rng);
                let d = if rng.gen_bool(0.5) { c } else { pick(&mut rng) };
                vec![c, d]
            }
        };
        let ages: Vec<u64> = context.iter().map(|_| rng.gen_range(0..600u64)).collect();
        let req = with_ages(req, context.clone(), &ages);
        let variant = match rng.gen_range(0..4) {
            0 => req.clone(),
            1 => SuggestRequest {
                k: KS[rng.gen_range(0..KS.len())],
                ..req.clone()
            },
            2 => {
                let other: Vec<u64> = ages.iter().map(|a| (a + 1 + a % 7) % 600).collect();
                with_ages(req.clone(), context, &other)
            }
            _ => {
                let mut reversed = context;
                reversed.reverse();
                let mut ages = ages;
                ages.reverse();
                with_ages(req.clone(), reversed, &ages)
            }
        };
        reqs.push(req);
        reqs.push(variant);
    }
    let reversed: Vec<SuggestRequest> = reqs.iter().rev().cloned().collect();
    reqs.extend(reversed);
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn memo_served_replies_match_a_fresh_engine(world in 0u64..400, seed in any::<u64>()) {
        let s = generate(&SynthConfig::tiny(world));
        let build = EngineBuildOptions {
            personalize: Some(ProfileTrainOptions {
                num_topics: 4,
                iterations: 10,
                hyper_every: 0,
                ..ProfileTrainOptions::default()
            }),
            ..EngineBuildOptions::default()
        };
        let engine = PqsDa::build_from_entries(&s.log.entries(), &build);
        let reqs = stream(engine.log().num_queries(), engine.log().num_users(), seed);
        for (i, req) in reqs.iter().enumerate() {
            let want = bits(&fresh(&engine).suggest_scored(req));
            prop_assert_eq!(bits(&engine.suggest_scored(req)), want, "request {}: {:?}", i, req);
        }
        let stats = engine.cache_stats();
        prop_assert_eq!(stats.selection_hits + stats.selection_misses, reqs.len() as u64);
        prop_assert!(stats.selection_hits > 0, "{:?}", stats);
    }
}
