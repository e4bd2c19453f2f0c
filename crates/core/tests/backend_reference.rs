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
//! over uniform, mass-weighted, two- and three-distinct-row and random
//! cross matrices at threads {1, 2, 4}.
//!
//! So are the memo-miss layers the reference builds on: `frozen_expand`
//! is compact expansion with its per-round `HashMap` accumulator,
//! `frozen_project` the `CooBuilder` projection, and `frozen_coefficient`
//! the Eq. 15 assembly over the `CooBuilder`-based `add_scaled`, each as
//! it shipped before the dense-accumulator rewrite. A property test pins
//! the live expansion's member order, projected matrices and coefficient
//! to them bit for bit.

use pqsda::crosswalk::HittingTimeScratch;
use pqsda::{
    CrossBipartiteWalk, EngineBuildOptions, PqsDa, ProfileTrainOptions, RegularizationConfig,
    Regularizer,
};
use pqsda_baselines::{Backend, SuggestRequest, Suggester};
use pqsda_graph::bipartite::{Bipartite, EntityKind};
use pqsda_graph::compact::{CompactConfig, CompactMulti};
use pqsda_graph::multi::MultiBipartite;
use pqsda_graph::walk::two_step_transition;
use pqsda_linalg::csr::{CooBuilder, CsrMatrix};
use pqsda_linalg::solver::{ConjugateGradient, LinearSolver};
use pqsda_parallel::{effective_threads, sweep_iterate};
use pqsda_querylog::synth::{generate, SynthConfig};
use pqsda_querylog::{LogEntry, QueryId, QueryLog, UserId};
use pqsda_serve::store::{load_server, save_server};
use pqsda_serve::{ServeConfig, ShardedPqsDa};
use proptest::prelude::*;
use std::collections::HashMap;

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

        let members = frozen_expand(self.engine.multi(), &seeds, &CompactConfig::default());
        let matrices = frozen_project(self.engine.multi(), &members);
        let config = RegularizationConfig::default();
        let coefficient = frozen_coefficient(&matrices, config);
        // The uniform cross-bipartite walk's layers over the frozen
        // projection.
        let layers = EntityKind::ALL.map(|kind| {
            two_step_transition(&Bipartite::from_matrix(
                kind,
                matrices[kind as usize].clone(),
            ))
        });
        let local: HashMap<QueryId, usize> =
            members.iter().enumerate().map(|(i, &q)| (q, i)).collect();

        let input_local = local[&req.query];
        let context: Vec<(usize, u64)> = req
            .context
            .iter()
            .zip(&req.context_times)
            .filter_map(|(&q, &t)| {
                local
                    .get(&q)
                    .map(|&l| (l, req.query_time.saturating_sub(t)))
            })
            .collect();

        let selected = frozen_select_scored(
            frozen_first_candidate(&coefficient, config, input_local, &context),
            layers.each_ref(),
            input_local,
            &context,
            req.k,
        );
        let diversified: Vec<(QueryId, f64)> =
            selected.into_iter().map(|(l, s)| (members[l], s)).collect();

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

/// `CompactMulti::expand`'s member selection as it shipped with a
/// per-round `HashMap` mass accumulator. Frozen — the oracle the live
/// expansion's member order must match bit for bit.
fn frozen_expand(full: &MultiBipartite, seeds: &[QueryId], config: &CompactConfig) -> Vec<QueryId> {
    assert!(!seeds.is_empty(), "compact expansion needs seed queries");
    let n = full.num_queries();
    let mut members: Vec<QueryId> = Vec::new();
    let mut in_set = vec![false; n];
    for &s in seeds {
        assert!(s.index() < n, "seed query out of range");
        if !in_set[s.index()] {
            in_set[s.index()] = true;
            members.push(s);
        }
    }

    // Walk mass currently sitting on each member (restart-free walk,
    // uniform over the seeds).
    let mut frontier: Vec<(usize, f64)> = members
        .iter()
        .map(|q| (q.index(), 1.0 / members.len() as f64))
        .collect();

    for _ in 0..config.max_rounds {
        if members.len() >= config.max_queries || frontier.is_empty() {
            break;
        }
        // Propagate one two-step hop through each bipartite; average
        // the three bipartites (the paper uses equal weights absent
        // prior knowledge, §IV-C).
        let mut mass: HashMap<usize, f64> = HashMap::new();
        for b in full.iter() {
            let m = b.matrix();
            let t = b.transposed();
            for &(q, w) in &frontier {
                let (ents, evals) = m.row(q);
                let esum: f64 = evals.iter().sum();
                if esum <= 0.0 {
                    continue;
                }
                for (&e, &ev) in ents.iter().zip(evals) {
                    let (qs, qvals) = t.row(e as usize);
                    let qsum: f64 = qvals.iter().sum();
                    if qsum <= 0.0 {
                        continue;
                    }
                    let p_e = ev / esum / 3.0;
                    for (&q2, &qv) in qs.iter().zip(qvals) {
                        *mass.entry(q2 as usize).or_insert(0.0) += w * p_e * qv / qsum;
                    }
                }
            }
        }
        // Admit the heaviest new queries.
        let mut new: Vec<(usize, f64)> = mass
            .iter()
            .filter(|(q, _)| !in_set[**q])
            .map(|(&q, &w)| (q, w))
            .collect();
        new.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let room = config.max_queries - members.len();
        for &(q, _) in new.iter().take(room) {
            in_set[q] = true;
            members.push(QueryId::from_index(q));
        }
        // Next frontier: full propagated mass restricted to members,
        // sorted by query index (the next round's accumulation order).
        frontier = mass
            .into_iter()
            .filter(|&(q, w)| in_set[q] && w > 1e-12)
            .collect();
        frontier.sort_unstable_by_key(|&(q, _)| q);
    }
    members
}

/// `CompactMulti::project`'s matrices as built through a `CooBuilder`, in
/// `{U, S, T}` order. Frozen.
fn frozen_project(full: &MultiBipartite, members: &[QueryId]) -> [CsrMatrix; 3] {
    [EntityKind::Url, EntityKind::Session, EntityKind::Term].map(|kind| {
        let src = full.get(kind).matrix();
        let mut b = CooBuilder::new(members.len(), src.cols());
        for (local, q) in members.iter().enumerate() {
            let (cols, vals) = src.row(q.index());
            for (&c, &v) in cols.iter().zip(vals) {
                b.push(local, c as usize, v);
            }
        }
        b.build()
    })
}

/// `CsrMatrix::add_scaled` as it shipped with a `CooBuilder` round-trip.
/// Frozen.
fn frozen_add_scaled(a: &CsrMatrix, alpha: f64, other: &CsrMatrix, beta: f64) -> CsrMatrix {
    assert_eq!(
        (a.rows(), a.cols()),
        (other.rows(), other.cols()),
        "add_scaled: shape mismatch"
    );
    let mut builder = CooBuilder::new(a.rows(), a.cols());
    for r in 0..a.rows() {
        let (ac, av) = a.row(r);
        let (bc, bv) = other.row(r);
        let (mut i, mut j) = (0, 0);
        while i < ac.len() || j < bc.len() {
            let take_a = j >= bc.len() || (i < ac.len() && ac[i] <= bc[j]);
            let take_b = i >= ac.len() || (j < bc.len() && bc[j] <= ac[i]);
            let (c, v) = if take_a && take_b {
                let out = (ac[i], alpha * av[i] + beta * bv[j]);
                i += 1;
                j += 1;
                out
            } else if take_a {
                let out = (ac[i], alpha * av[i]);
                i += 1;
                out
            } else {
                let out = (bc[j], beta * bv[j]);
                j += 1;
                out
            };
            if v != 0.0 {
                builder.push(r, c as usize, v);
            }
        }
    }
    builder.build()
}

/// `Regularizer::new`'s Eq. 15 coefficient over projected matrices,
/// assembled through [`frozen_add_scaled`]. Frozen.
fn frozen_coefficient(matrices: &[CsrMatrix; 3], config: RegularizationConfig) -> CsrMatrix {
    let n = matrices[0].rows();
    let alpha_sum: f64 = config.alphas.iter().sum();
    let mut coefficient = CsrMatrix::identity(n).map_values(|v| v * (1.0 + alpha_sum));
    for (x, w) in matrices.iter().enumerate() {
        let alpha = config.alphas[x];
        if alpha == 0.0 {
            continue;
        }
        // S = W Wᵀ; 𝓛 = D^{-1/2} S D^{-1/2}.
        let s = w.mul(&w.transpose());
        let d = s.row_sums();
        let d_inv_sqrt: Vec<f64> = d
            .iter()
            .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
            .collect();
        let l = s.scale_rows(&d_inv_sqrt).scale_cols(&d_inv_sqrt);
        coefficient = frozen_add_scaled(&coefficient, 1.0, &l, -alpha);
    }
    coefficient
}

/// `Regularizer::first_candidate` over a frozen coefficient: the Eq. 7
/// seed, the CG solve, and the arg-max outside the input and its
/// context. Frozen.
fn frozen_first_candidate(
    coefficient: &CsrMatrix,
    config: RegularizationConfig,
    input_local: usize,
    context: &[(usize, u64)],
) -> Option<(usize, Vec<f64>)> {
    let n = coefficient.rows();
    let mut f0 = vec![0.0; n];
    f0[input_local] = 1.0;
    for &(local, age) in context {
        f0[local] = (-config.lambda * age as f64).exp();
    }
    f0[input_local] = 1.0;
    let f_star = ConjugateGradient::new(config.solver)
        .solve(coefficient, &f0)
        .solution;
    let excluded: Vec<usize> = std::iter::once(input_local)
        .chain(context.iter().map(|&(l, _)| l))
        .collect();
    let best = (0..n)
        .filter(|i| !excluded.contains(i) && f_star[*i] > 0.0)
        .max_by(|&a, &b| f_star[a].partial_cmp(&f_star[b]).unwrap().then(b.cmp(&a)));
    best.map(|i| (i, f_star))
}

/// Algorithm 1 as shipped before the backend traits existed (defaults:
/// uniform cross matrix, pool_factor 5, horizon 20, bias 0), from the
/// first candidate and the walk's layers in `{U, S, T}` order. Frozen —
/// do not sync with `backend.rs`; divergence is exactly what this file
/// exists to catch.
fn frozen_select_scored(
    first_candidate: Option<(usize, Vec<f64>)>,
    layers: [&CsrMatrix; 3],
    input_local: usize,
    context: &[(usize, u64)],
    k: usize,
) -> Vec<(usize, f64)> {
    let Some((first, f_star)) = first_candidate else {
        return Vec::new();
    };
    let mut selected = vec![first];
    let excluded: Vec<usize> = std::iter::once(input_local)
        .chain(context.iter().map(|&(l, _)| l))
        .collect();

    let pool_size = (5 * k).max(10);
    let mut pool: Vec<usize> = (0..layers[0].rows())
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
        let h = frozen_hitting_time(layers, [[1.0 / 3.0; 3]; 3], &targets, 20, 0);
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
/// `transitions` are the walk's layers in `{U, S, T}` order and `n` its
/// cross matrix. Frozen — the oracle the live kernel must match bit for
/// bit.
fn frozen_hitting_time(
    transitions: [&CsrMatrix; 3],
    n: [[f64; 3]; 3],
    targets: &[usize],
    horizon: usize,
    threads: usize,
) -> Vec<f64> {
    const MIN_WORK_PER_THREAD: usize = 16_384;
    assert!(!targets.is_empty(), "hitting_time: empty target set");
    let q = transitions[0].rows();
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
/// across all walks, whatever their size. Besides the uniform and
/// mass-weighted walks (one distinct row of `N`) and the given `cross`,
/// two fixed matrices with exactly two and three distinct rows pin every
/// count of state vectors the kernel can carry. Returns the first
/// mismatch.
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
            (
                "two_rows",
                CrossBipartiteWalk::with_cross_matrix(
                    compact,
                    cross_matrix_from(&[vec![2, 1, 1], vec![0, 1, 3], vec![2, 1, 1]]),
                ),
            ),
            (
                "three_rows",
                CrossBipartiteWalk::with_cross_matrix(
                    compact,
                    cross_matrix_from(&[vec![1, 2, 1], vec![3, 0, 1], vec![1, 1, 2]]),
                ),
            ),
        ];
        let q = compact.len();
        let mut targets: Vec<usize> = targets.iter().map(|&t| t % q).collect();
        targets.push(targets[0]);
        for (name, walk) in &walks {
            for horizon in [0usize, 1, 2, 20] {
                let layers = EntityKind::ALL.map(|kind| walk.layer(kind));
                let want = frozen_hitting_time(layers, walk.cross_matrix(), &targets, horizon, 1);
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
/// work, `nnz + d·q` with `d` = 1 for the uniform walk and more for the
/// others), so on a multi-core host threads 2 and 4 run the barrier region.
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
        + compact.len();
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

/// Raw bits of a matrix's CSR arrays.
fn part_bits(m: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let (p, c, v) = m.parts();
    (
        p.to_vec(),
        c.to_vec(),
        v.iter().map(|x| x.to_bits()).collect(),
    )
}

/// The live memo-miss layers against the frozen oracles for one seed set:
/// the expansion's member order, the three projected matrices' CSR arrays
/// and the Eq. 15 coefficient's under three α settings, all bit for bit.
/// Returns the first mismatch.
fn memo_miss_mismatch(
    multi: &MultiBipartite,
    seeds: &[QueryId],
    config: &CompactConfig,
) -> Option<String> {
    let compact = CompactMulti::expand(multi, seeds, config);
    let members = frozen_expand(multi, seeds, config);
    if compact.queries() != members.as_slice() {
        return Some(format!("member order, seeds {seeds:?}, {config:?}"));
    }
    let matrices = frozen_project(multi, &members);
    for kind in EntityKind::ALL {
        if part_bits(compact.matrix(kind)) != part_bits(&matrices[kind as usize]) {
            return Some(format!("{kind:?} matrix, seeds {seeds:?}, {config:?}"));
        }
    }
    // The default α, a layer switched off, and unequal weights.
    for alphas in [[0.6, 0.6, 0.6], [0.0, 0.6, 0.6], [1.3, 0.45, 0.05]] {
        let reg = RegularizationConfig {
            alphas,
            ..RegularizationConfig::default()
        };
        let live = Regularizer::new(&compact, reg);
        if part_bits(live.coefficient()) != part_bits(&frozen_coefficient(&matrices, reg)) {
            return Some(format!(
                "Eq. 15 coefficient, α {alphas:?}, seeds {seeds:?}, {config:?}"
            ));
        }
    }
    None
}

/// The memo-miss layers at the serving shape: default expansions (512
/// queries) on the default synthetic world, single and contextual seed
/// sets.
#[test]
fn memo_miss_layers_match_frozen_oracles_at_the_serving_shape() {
    let s = generate(&SynthConfig::default());
    let engine = PqsDa::build_from_entries(&s.log.entries(), &EngineBuildOptions::default());
    let records = engine.log().records();
    for i in [0usize, 1, records.len() / 2] {
        let seeds = [records[i].query, records[i + 1].query];
        for seeds in [&seeds[..1], &seeds[..]] {
            let mismatch = memo_miss_mismatch(engine.multi(), seeds, &CompactConfig::default());
            assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }
    }
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

    /// Live expansion, projection and Eq. 15 assembly against the frozen
    /// oracles (see `memo_miss_mismatch`) for random 1–3-query seed sets,
    /// drawn from the log's records so duplicates occur, plus each set
    /// with its first seed repeated — at the default, a small and a
    /// random `CompactConfig`. The same seed picks then run over the
    /// engines a representation reaches serving through: built from the
    /// whole log; grown from a 90 % prefix by `apply_delta`, once through
    /// a scoped reweight and once through a full one (each rebuilds its
    /// Gram matrices from the merged weights on first use); and each
    /// shard of a 2-shard server reloaded from a snapshot over mmap.
    #[test]
    fn memo_miss_layers_match_frozen_oracles(
        seed in 0u64..400,
        picks in prop::collection::vec(0usize..10_000, 1..4),
        max_queries in 2usize..64,
        max_rounds in 1usize..5,
    ) {
        let s = generate(&SynthConfig::tiny(seed));
        let entries = s.log.entries();
        let opts = EngineBuildOptions::default();
        let configs = [
            CompactConfig::default(),
            CompactConfig { max_queries: 24, max_rounds: 2 },
            CompactConfig { max_queries, max_rounds },
        ];
        let check = |engine: &PqsDa, what: &str| -> Result<(), TestCaseError> {
            let records = engine.log().records();
            let mut seeds: Vec<QueryId> =
                picks.iter().map(|&i| records[i % records.len()].query).collect();
            for _ in 0..2 {
                for config in &configs {
                    let mismatch = memo_miss_mismatch(engine.multi(), &seeds, config);
                    prop_assert!(mismatch.is_none(), "{}: {}", what, mismatch.unwrap_or_default());
                }
                seeds.push(seeds[0]);
            }
            Ok(())
        };
        check(&PqsDa::build_from_entries(&entries, &opts), "whole log")?;

        // The prefix engine's Gram matrices are built (by its own check)
        // before either delta, so a stale carry-over would show.
        let cut = entries.len() * 9 / 10;
        let base = PqsDa::build_from_entries(&entries[..cut], &opts);
        check(&base, "prefix")?;
        let t0 = entries[..cut].iter().map(|e| e.timestamp).max().unwrap_or(0);
        // Re-submissions of known queries and URLs: no query is new, so
        // the reweight stays scoped to the touched rows.
        let scoped: Vec<LogEntry> = entries[..cut]
            .iter()
            .step_by(7)
            .enumerate()
            .map(|(i, e)| LogEntry { timestamp: t0 + 1 + i as u64, ..e.clone() })
            .collect();
        // The held-out tail plus a brand-new query: |Q| grows, so every
        // weight is rescaled.
        let mut full: Vec<LogEntry> = entries[cut..].to_vec();
        let t1 = full.iter().map(|e| e.timestamp).max().unwrap_or(t0);
        full.push(LogEntry::new(UserId(0), "gram delta probe", Some("probe.example"), t1 + 1));
        for (delta, want_full) in [(&scoped, false), (&full, true)] {
            let (grown, report) = base.apply_delta(delta, &opts).expect("delta applies");
            prop_assert_eq!(report.full_reweight, want_full);
            check(&grown, if want_full { "full reweight" } else { "scoped delta" })?;
        }

        let config = ServeConfig { shards: 2, ..ServeConfig::default() };
        let server = ShardedPqsDa::build(&entries, config);
        let dir = std::env::temp_dir()
            .join(format!("pqsda-memo-miss-{}-{seed}", std::process::id()));
        save_server(&server, &dir).expect("save");
        let (loaded, _) = load_server(&dir, config, true).expect("load over mmap");
        std::fs::remove_dir_all(&dir).ok();
        for shard in 0..2 {
            let snap = loaded.shard_snapshot(shard);
            if snap.engine.log().records().is_empty() {
                continue;
            }
            prop_assert!(
                EntityKind::ALL.iter().all(|&k| snap.engine.multi().get(k).matrix().is_mapped()),
                "shard {} not served from the mapping", shard
            );
            check(&snap.engine, &format!("mmap shard {shard}"))?;
        }
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
