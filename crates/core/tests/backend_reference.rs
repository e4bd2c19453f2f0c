//! The backend refactor's bit-identity gate.
//!
//! `FrozenReference` is a literal copy of the engine's suggest path as it
//! existed *before* the pluggable-backend cut — expansion, Eq. 15 first
//! candidate, Algorithm 1's pool + hitting-time loop, personalization
//! Borda rerank — written against public APIs only and kept frozen. The
//! property tests then assert that the refactored engine under the
//! default backend reproduces it **bit for bit** (ranking AND `F*`
//! scores) on random synthetic logs, at 1/2/4 request threads, anonymous
//! and personalized alike. Any behavioral drift in the trait cut shows up
//! here as a failed seed, not as a silent ranking change.
//!
//! The same suite pins the new backends' contracts: BiRank is
//! bit-deterministic across thread counts and repeat builds, and
//! IntentFused degrades to the default backend exactly for requests
//! without a personalized profile.
//!
//! The reference's hitting time is frozen too: `frozen_hitting_time` is
//! the per-state `3q` sweep of Eq. 17 as it shipped before the two-phase
//! kernel, and a property test pins `hitting_time_into` to it bit for bit
//! over uniform, mass-weighted and random cross matrices at threads
//! {1, 2, 4}.

use pqsda::crosswalk::HittingTimeScratch;
use pqsda::{
    CrossBipartiteWalk, EngineBuildOptions, PqsDa, ProfileTrainOptions, RegularizationConfig,
    Regularizer,
};
use pqsda_baselines::{Backend, SuggestRequest, Suggester};
use pqsda_graph::bipartite::EntityKind;
use pqsda_graph::compact::{CompactConfig, CompactMulti};
use pqsda_parallel::{effective_threads, sweep_iterate};
use pqsda_querylog::synth::{generate, SynthConfig};
use pqsda_querylog::{QueryId, QueryLog};
use proptest::prelude::*;

/// The pre-refactor suggest path, frozen. Defaults only: uniform cross
/// matrix, `hitting_time: true`, `relevance_bias: 0.0`.
struct FrozenReference<'a> {
    engine: &'a PqsDa,
}

impl FrozenReference<'_> {
    fn suggest_scored(&self, req: &SuggestRequest) -> Vec<(QueryId, f64)> {
        let log = self.engine.log();
        if req.query.index() >= log.num_queries() || req.k == 0 {
            return Vec::new();
        }
        let mut seeds = vec![req.query];
        seeds.extend(req.context.iter().copied());
        let mut seen = std::collections::HashSet::with_capacity(seeds.len());
        seeds.retain(|q| seen.insert(*q));

        let compact = CompactMulti::expand(self.engine.multi(), &seeds, &CompactConfig::default());
        let regularizer = Regularizer::new(&compact, RegularizationConfig::default());
        let walk = CrossBipartiteWalk::uniform(&compact);

        let input_local = compact.local(req.query).expect("input is a seed");
        let context: Vec<(usize, u64)> = req
            .context
            .iter()
            .zip(&req.context_times)
            .filter_map(|(&q, &t)| {
                compact
                    .local(q)
                    .map(|l| (l, req.query_time.saturating_sub(t)))
            })
            .collect();

        let selected = frozen_select_scored(&regularizer, &walk, input_local, &context, req.k);
        let diversified: Vec<(QueryId, f64)> = selected
            .into_iter()
            .map(|(l, s)| (compact.global(l), s))
            .collect();

        match (self.engine.personalizer(), req.user) {
            (Some(p), Some(user)) => {
                let qids: Vec<QueryId> = diversified.iter().map(|&(q, _)| q).collect();
                let reranked = p.rerank(user, log, &qids);
                let score_of: std::collections::HashMap<QueryId, f64> =
                    diversified.into_iter().collect();
                reranked
                    .into_iter()
                    .map(|q| (q, score_of.get(&q).copied().unwrap_or(0.0)))
                    .collect()
            }
            _ => diversified,
        }
    }
}

/// Algorithm 1 as shipped before the backend traits existed (defaults:
/// pool_factor 5, horizon 20, bias 0). Frozen — do not sync with
/// `backend.rs`; divergence is exactly what this file exists to catch.
fn frozen_select_scored(
    regularizer: &Regularizer,
    walk: &CrossBipartiteWalk,
    input_local: usize,
    context: &[(usize, u64)],
    k: usize,
) -> Vec<(usize, f64)> {
    let Some((first, f_star)) = regularizer.first_candidate(input_local, context) else {
        return Vec::new();
    };
    let mut selected = vec![first];
    let excluded: Vec<usize> = std::iter::once(input_local)
        .chain(context.iter().map(|&(l, _)| l))
        .collect();

    let pool_size = (5 * k).max(10);
    let mut pool: Vec<usize> = (0..walk.num_queries())
        .filter(|i| !excluded.contains(i) && f_star[*i] > 0.0)
        .collect();
    pool.sort_by(|&a, &b| f_star[b].partial_cmp(&f_star[a]).unwrap().then(a.cmp(&b)));
    pool.truncate(pool_size);

    let mut targets = selected.clone();
    targets.push(input_local);
    let f_max = pool
        .iter()
        .map(|&i| f_star[i])
        .fold(f64::MIN_POSITIVE, f64::max);
    let score = |h: &[f64], i: usize| -> f64 { h[i] * (f_star[i] / f_max).powf(0.0) };
    while selected.len() < k {
        let h = frozen_hitting_time(walk, &targets, 20, 0);
        let next = pool
            .iter()
            .copied()
            .filter(|i| !selected.contains(i))
            .max_by(|&a, &b| {
                score(&h, a)
                    .partial_cmp(&score(&h, b))
                    .unwrap()
                    .then(f_star[a].partial_cmp(&f_star[b]).unwrap())
                    .then(b.cmp(&a))
            });
        match next {
            Some(i) => {
                selected.push(i);
                targets.push(i);
            }
            None => break,
        }
    }
    selected.into_iter().map(|l| (l, f_star[l])).collect()
}

/// `CrossBipartiteWalk::hitting_time_with_threads` as shipped before the
/// two-phase kernel: the augmented chain flattened to one `3q` state
/// vector, each state recomputing every layer's row product it needs.
/// Frozen — the oracle the live kernel must match bit for bit.
fn frozen_hitting_time(
    walk: &CrossBipartiteWalk,
    targets: &[usize],
    horizon: usize,
    threads: usize,
) -> Vec<f64> {
    const MIN_WORK_PER_THREAD: usize = 16_384;
    let transitions = EntityKind::ALL.map(|kind| walk.layer(kind));
    let n = walk.cross_matrix();
    assert!(!targets.is_empty(), "hitting_time: empty target set");
    let q = walk.num_queries();
    let mut in_target = vec![false; q];
    for &t in targets {
        assert!(t < q, "hitting_time: target {t} out of range");
        in_target[t] = true;
    }
    let work = transitions.iter().map(|t| t.nnz()).sum::<usize>() + 3 * q;
    let threads = effective_threads(threads, work, MIN_WORK_PER_THREAD);
    // h[x*q + i]: hitting time from state (bipartite x, query i).
    let mut h = vec![0.0; 3 * q];
    let mut next = vec![0.0; 3 * q];
    let in_target = &in_target;
    sweep_iterate(&mut h, &mut next, horizon, threads, |s, h| {
        let (x, i) = (s / q, s % q);
        if in_target[i] {
            return 0.0;
        }
        // One step: teleport to bipartite y (prob N[x][y]), then move
        // within y. Mass that cannot move (empty row) self-loops in
        // place.
        let mut acc = 0.0;
        for (y, &p_y) in n[x].iter().enumerate() {
            if p_y == 0.0 {
                continue;
            }
            let (cols, vals) = transitions[y].row(i);
            let mut mass = 0.0;
            let mut inner = 0.0;
            for (&j, &p) in cols.iter().zip(vals) {
                inner += p * h[y * q + j as usize];
                mass += p;
            }
            if mass < 1.0 {
                inner += (1.0 - mass) * h[y * q + i];
            }
            acc += p_y * inner;
        }
        1.0 + acc
    });
    (0..q)
        .map(|i| (h[i] + h[q + i] + h[2 * q + i]) / 3.0)
        .collect()
}

/// A cross matrix from small integer weights: zero entries stay exact
/// zeros, and an all-zero row falls back to pure self-teleport.
fn cross_matrix_from(weights: &[Vec<u8>]) -> [[f64; 3]; 3] {
    let mut n = [[0.0; 3]; 3];
    for (x, row) in weights.iter().enumerate() {
        let total: u32 = row.iter().map(|&w| u32::from(w)).sum();
        for (y, &w) in row.iter().enumerate() {
            n[x][y] = if total == 0 {
                f64::from(u8::from(x == y))
            } else {
                f64::from(w) / f64::from(total)
            };
        }
    }
    n
}

/// The live kernel against [`frozen_hitting_time`] on every walk kind,
/// horizons {0, 1, 2, 20}, and threads {1, 2, 4}, with `targets` (indices
/// taken modulo each walk's size, duplicates kept) and one scratch reused
/// across all walks, whatever their size. Returns the first mismatch.
fn kernel_mismatch(
    compacts: &[CompactMulti],
    cross: [[f64; 3]; 3],
    targets: &[usize],
    scratch: &mut HittingTimeScratch,
) -> Option<String> {
    let mut out = Vec::new();
    for compact in compacts {
        let walks = [
            ("uniform", CrossBipartiteWalk::uniform(compact)),
            ("mass_weighted", CrossBipartiteWalk::mass_weighted(compact)),
            (
                "cross",
                CrossBipartiteWalk::with_cross_matrix(compact, cross),
            ),
        ];
        let q = compact.len();
        let mut targets: Vec<usize> = targets.iter().map(|&t| t % q).collect();
        targets.push(targets[0]);
        for (name, walk) in &walks {
            for horizon in [0usize, 1, 2, 20] {
                let want = frozen_hitting_time(walk, &targets, horizon, 1);
                for threads in [1usize, 2, 4] {
                    walk.hitting_time_into(&targets, horizon, threads, scratch, &mut out);
                    if out
                        .iter()
                        .map(|x| x.to_bits())
                        .ne(want.iter().map(|x| x.to_bits()))
                    {
                        return Some(format!(
                            "{name} walk, q {q}, horizon {horizon}, threads {threads}, \
                             targets {targets:?}"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The property test's walks are small enough that the work gate keeps
/// every thread count serial; this one is past it (≥ 4 × 49 152 units of
/// work), so on a multi-core host threads 2 and 4 run the barrier region.
#[test]
fn hitting_time_kernel_matches_frozen_sweep_past_the_work_gate() {
    let s = generate(&SynthConfig::default());
    let engine = PqsDa::build_from_entries(&s.log.entries(), &EngineBuildOptions::default());
    let input = engine.log().records()[0].query;
    let config = CompactConfig {
        max_queries: 3072,
        max_rounds: 6,
    };
    let compact = CompactMulti::expand(engine.multi(), &[input], &config);
    let walk = CrossBipartiteWalk::uniform(&compact);
    let work: usize = EntityKind::ALL
        .iter()
        .map(|&kind| walk.layer(kind).nnz())
        .sum::<usize>()
        + 3 * compact.len();
    assert!(work >= 4 * 49_152, "walk too small to split: {work}");
    let cross = cross_matrix_from(&[vec![2, 0, 1], vec![1, 1, 1], vec![0, 0, 3]]);
    let mut scratch = HittingTimeScratch::default();
    let mismatch = kernel_mismatch(&[compact], cross, &[0, 7, 7, 311], &mut scratch);
    assert!(
        mismatch.is_none(),
        "kernel diverged: {}",
        mismatch.unwrap_or_default()
    );
}

/// Anonymous, contextual and personalized requests over the log's
/// records, each under the given backend.
fn request_mix(log: &QueryLog, backend: Backend) -> Vec<SuggestRequest> {
    let records = log.records();
    let mut reqs = Vec::new();
    for (i, r) in records.iter().enumerate().step_by(records.len() / 10 + 1) {
        let mut req = SuggestRequest::simple(r.query, 1 + i % 8)
            .for_user(r.user)
            .with_backend(backend);
        if i > 0 {
            let prev = &records[i - 1];
            req = req.with_context(vec![prev.query], vec![prev.timestamp], r.timestamp);
        }
        reqs.push(req);
        reqs.push(SuggestRequest::simple(r.query, 5).with_backend(backend));
    }
    reqs.push(SuggestRequest::simple(records[0].query, 0).with_backend(backend));
    reqs
}

fn bits(list: &[(QueryId, f64)]) -> Vec<(QueryId, u64)> {
    list.iter().map(|&(q, s)| (q, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Default backend == pre-refactor engine, bit for bit — `suggest`,
    /// `suggest_scored` (scores compared as raw bits) and the threaded
    /// batch path at 1/2/4 threads.
    #[test]
    fn default_backend_matches_frozen_reference(seed in 0u64..400) {
        let s = generate(&SynthConfig::tiny(seed));
        let engine = PqsDa::build_from_entries(&s.log.entries(), &EngineBuildOptions::default());
        let reference = FrozenReference { engine: &engine };
        let reqs = request_mix(engine.log(), Backend::Eq15);
        let expected: Vec<Vec<(QueryId, f64)>> =
            reqs.iter().map(|r| reference.suggest_scored(r)).collect();
        for (req, want) in reqs.iter().zip(&expected) {
            prop_assert_eq!(bits(&engine.suggest_scored(req)), bits(want));
        }
        let want_plain: Vec<Vec<QueryId>> = expected
            .iter()
            .map(|l| l.iter().map(|&(q, _)| q).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                &engine.suggest_many_with_threads(&reqs, threads),
                &want_plain,
                "threads {}", threads
            );
        }
    }

    /// The two-phase hitting-time kernel reproduces the frozen per-state
    /// sweep bit for bit (see `kernel_mismatch`), on compact expansions of
    /// three random sizes around a random query.
    #[test]
    fn hitting_time_kernel_matches_frozen_sweep(
        seed in 0u64..400,
        sizes in prop::collection::vec(2usize..160, 3),
        weights in prop::collection::vec(prop::collection::vec(0u8..4, 3), 3),
        targets in prop::collection::vec(0usize..1000, 1..6),
    ) {
        let s = generate(&SynthConfig::tiny(seed));
        let engine = PqsDa::build_from_entries(&s.log.entries(), &EngineBuildOptions::default());
        let records = engine.log().records();
        let input = records[seed as usize % records.len()].query;
        let compacts: Vec<CompactMulti> = sizes
            .iter()
            .map(|&max_queries| {
                let config = CompactConfig { max_queries, max_rounds: 4 };
                CompactMulti::expand(engine.multi(), &[input], &config)
            })
            .collect();
        let mut scratch = HittingTimeScratch::default();
        let mismatch =
            kernel_mismatch(&compacts, cross_matrix_from(&weights), &targets, &mut scratch);
        prop_assert!(mismatch.is_none(), "kernel diverged: {}", mismatch.unwrap_or_default());
    }

    /// BiRank is bit-deterministic: repeat builds and every thread count
    /// produce identical rankings and scores.
    #[test]
    fn birank_is_deterministic_across_threads_and_builds(seed in 0u64..400) {
        let s = generate(&SynthConfig::tiny(seed));
        let entries = s.log.entries();
        let a = PqsDa::build_from_entries(&entries, &EngineBuildOptions::default());
        let b = PqsDa::build_from_entries(&entries, &EngineBuildOptions::default());
        let reqs = request_mix(a.log(), Backend::BiRank);
        let baseline: Vec<Vec<(QueryId, u64)>> =
            reqs.iter().map(|r| bits(&a.suggest_scored(r))).collect();
        for (req, want) in reqs.iter().zip(&baseline) {
            prop_assert_eq!(&bits(&b.suggest_scored(req)), want, "fresh build diverged");
        }
        let plain: Vec<Vec<QueryId>> = baseline
            .iter()
            .map(|l| l.iter().map(|&(q, _)| q).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                &a.suggest_many_with_threads(&reqs, threads),
                &plain,
                "threads {}", threads
            );
        }
    }

    /// Without a personalizer (or profile) IntentFused degrades to the
    /// default backend exactly — the fusion only acts on the personalized
    /// Borda stage.
    #[test]
    fn intent_fused_degrades_to_default_without_profiles(seed in 0u64..400) {
        let s = generate(&SynthConfig::tiny(seed));
        let engine = PqsDa::build_from_entries(&s.log.entries(), &EngineBuildOptions::default());
        for (intent_req, plain_req) in request_mix(engine.log(), Backend::IntentFused)
            .iter()
            .zip(&request_mix(engine.log(), Backend::Eq15))
        {
            prop_assert_eq!(
                bits(&engine.suggest_scored(intent_req)),
                bits(&engine.suggest_scored(plain_req))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The bit-identity survives personalization: the default backend's
    /// Borda rerank is byte-for-byte the pre-refactor one.
    #[test]
    fn default_backend_matches_frozen_reference_personalized(seed in 0u64..100) {
        let s = generate(&SynthConfig::tiny(seed));
        let build = EngineBuildOptions {
            personalize: Some(ProfileTrainOptions {
                num_topics: 5,
                iterations: 15,
                hyper_every: 0,
                ..ProfileTrainOptions::default()
            }),
            ..EngineBuildOptions::default()
        };
        let engine = PqsDa::build_from_entries(&s.log.entries(), &build);
        let reference = FrozenReference { engine: &engine };
        let reqs = request_mix(engine.log(), Backend::Eq15);
        let expected: Vec<Vec<(QueryId, f64)>> =
            reqs.iter().map(|r| reference.suggest_scored(r)).collect();
        for (req, want) in reqs.iter().zip(&expected) {
            prop_assert_eq!(bits(&engine.suggest_scored(req)), bits(want));
        }
        let want_plain: Vec<Vec<QueryId>> = expected
            .iter()
            .map(|l| l.iter().map(|&(q, _)| q).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                &engine.suggest_many_with_threads(&reqs, threads),
                &want_plain,
                "threads {}", threads
            );
        }
    }

    /// Personalized IntentFused requests stay a permutation of the default
    /// backend's candidate set (fusion reorders, never adds or drops), and
    /// the BiRank candidate pipeline threads cleanly through the
    /// personalized path too.
    #[test]
    fn alternate_backends_permute_not_mutate_personalized(seed in 0u64..100) {
        let s = generate(&SynthConfig::tiny(seed));
        let build = EngineBuildOptions {
            personalize: Some(ProfileTrainOptions {
                num_topics: 5,
                iterations: 15,
                hyper_every: 0,
                ..ProfileTrainOptions::default()
            }),
            ..EngineBuildOptions::default()
        };
        let engine = PqsDa::build_from_entries(&s.log.entries(), &build);
        for (intent_req, plain_req) in request_mix(engine.log(), Backend::IntentFused)
            .iter()
            .zip(&request_mix(engine.log(), Backend::Eq15))
        {
            let mut fused = engine.suggest(intent_req);
            let mut plain = engine.suggest(plain_req);
            fused.sort_unstable();
            plain.sort_unstable();
            prop_assert_eq!(fused, plain, "IntentFused changed the candidate set");
        }
        for req in request_mix(engine.log(), Backend::BiRank) {
            let out = engine.suggest(&req);
            prop_assert!(out.len() <= req.k);
            prop_assert!(!out.contains(&req.query));
            prop_assert_eq!(&engine.suggest(&req), &out, "BiRank repeat diverged");
        }
    }
}
