//! Pluggable ranking backends: the trait cut through the suggest
//! pipeline.
//!
//! The suggest path is one explicit pipeline — candidate generation
//! (compact expansion + memo) → **relevance backend** → diversification
//! backend → personalization re-rank → Borda aggregation — and the two
//! last-mile scoring stages sit behind traits so the serving layer can
//! A/B them per request ([`pqsda_baselines::Backend`] on every
//! [`pqsda_baselines::SuggestRequest`]):
//!
//! * [`RelevanceBackend`] turns `(input, context)` into a relevance
//!   vector over the compact set plus its arg-max — the "first candidate"
//!   of Algorithm 1. [`Eq15Relevance`] (the default) solves the paper's
//!   Eq. 15 linear system; [`BiRank`] runs iterative bipartite smoothing
//!   (He et al.) over the same three bipartites.
//! * [`DiversifyBackend`] turns the relevance vector into the ranked
//!   selection. [`HittingTimeDiversify`] (the default and only entrant)
//!   is Algorithm 1's cross-bipartite hitting-time arg-max over the
//!   relevance-gated pool.
//!
//! Contract shared by every relevance backend: **deterministic** — the
//! same compact representation and request produce bit-identical scores
//! at any thread count (all backend arithmetic is serial and
//! fixed-order; parallelism lives above, in the per-request fan-out).
//! The default pair is proven bit-identical to the pre-refactor
//! monolithic engine by the frozen-reference property tests in
//! `tests/backend_reference.rs`.

use crate::crosswalk::{CrossBipartiteWalk, HittingTimeScratch};
use crate::regularize::Regularizer;
use pqsda_baselines::Backend;
use pqsda_graph::bipartite::EntityKind;
use pqsda_graph::compact::CompactMulti;
use pqsda_linalg::csr::CsrMatrix;
use std::sync::OnceLock;

/// The relevance stage: scores every query of the compact set for one
/// `(input, context)` pair and names the most relevant candidate.
pub trait RelevanceBackend: Send + Sync {
    /// Stable backend name (reports, debug output).
    fn name(&self) -> &'static str;

    /// The relevance vector and its arg-max outside the input and its
    /// context (`None` when no other query carries mass). `context`
    /// pairs each context query's local index with its age in seconds.
    fn relevance(&self, input_local: usize, context: &[(usize, u64)]) -> Option<(usize, Vec<f64>)>;
}

/// The diversification stage: turns a relevance vector into the ranked
/// selection of up to `k` local indices with their relevance scores.
pub trait DiversifyBackend: Send + Sync {
    /// Stable backend name (reports, debug output).
    fn name(&self) -> &'static str;

    /// Selects the ranking. `first` is the relevance arg-max (always the
    /// first pick), `f_star` the relevance vector, and `context` the
    /// context locals with ages (excluded from the selection).
    fn select(
        &self,
        first: usize,
        f_star: &[f64],
        input_local: usize,
        context: &[(usize, u64)],
        k: usize,
    ) -> Vec<(usize, f64)>;
}

/// Which relevance model a backend runs — the component of the request
/// backend that determines the expansion-memo entry. [`Backend::Eq15`]
/// and [`Backend::IntentFused`] share [`RelevanceKind::Eq15`]: intent
/// fusion changes only the Borda aggregation downstream of the memo, so
/// sharing the cached diversifier between them is exact, not
/// approximate. [`Backend::BiRank`] scores differently and must never
/// share an entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RelevanceKind {
    /// The Eq. 15 regularization system.
    #[default]
    Eq15,
    /// BiRank iterative smoothing.
    BiRank,
}

impl RelevanceKind {
    /// The relevance model a request backend runs.
    pub fn of(backend: Backend) -> RelevanceKind {
        match backend {
            Backend::Eq15 | Backend::IntentFused => RelevanceKind::Eq15,
            Backend::BiRank => RelevanceKind::BiRank,
        }
    }
}

// --- Eq. 15 (default) ------------------------------------------------------

/// The default relevance backend: the context-aware regularization
/// framework of paper §IV-B (Eq. 15), solved by conjugate gradient.
#[derive(Clone, Debug)]
pub struct Eq15Relevance {
    regularizer: Regularizer,
}

impl Eq15Relevance {
    /// Assembles the Eq. 15 system over one compact representation.
    pub fn new(regularizer: Regularizer) -> Self {
        Eq15Relevance { regularizer }
    }
}

impl RelevanceBackend for Eq15Relevance {
    fn name(&self) -> &'static str {
        "eq15"
    }

    fn relevance(&self, input_local: usize, context: &[(usize, u64)]) -> Option<(usize, Vec<f64>)> {
        self.regularizer.first_candidate(input_local, context)
    }
}

// --- BiRank ----------------------------------------------------------------

/// Knobs of the [`BiRank`] relevance backend.
#[derive(Clone, Copy, Debug)]
pub struct BiRankConfig {
    /// Smoothing weight γ: each iteration mixes `γ · (smoothed mass)`
    /// with `(1 − γ) · F⁰` (the query-side anchor to the seed vector).
    pub gamma: f64,
    /// Convergence tolerance: iteration stops when the L1 change of the
    /// query vector drops below this.
    pub tolerance: f64,
    /// Hard iteration cap (the determinism guarantee never depends on
    /// where the tolerance lands — the loop is serial and fixed-order
    /// regardless).
    pub max_iterations: usize,
}

impl Default for BiRankConfig {
    fn default() -> Self {
        BiRankConfig {
            gamma: 0.85,
            tolerance: 1e-9,
            max_iterations: 64,
        }
    }
}

/// BiRank (He et al.): iterative bipartite smoothing as an alternative
/// relevance model to the Eq. 15 linear solve.
///
/// For each bipartite `X ∈ {U, S, T}` of the compact representation the
/// symmetrically normalized matrix `S^X = D_q^{-1/2} W^X D_e^{-1/2}` is
/// precomputed once. One iteration bounces the query vector through every
/// bipartite's entity side and back,
///
/// ```text
/// q ← γ · Σ_X w_X · S^X (S^Xᵀ q)  +  (1 − γ) · F⁰ ,
/// ```
///
/// with the per-bipartite weights `w_X` the regularization α's normalized
/// to sum 1 (the same importance knobs Eq. 15 uses), and `F⁰` the same
/// context-decayed seed vector (Eq. 7) the default backend seeds its
/// solve with — so the two backends answer the same question and differ
/// only in the smoothing operator. Iteration is serial with a fixed
/// `U, S, T` accumulation order, so the fixed point (and every
/// intermediate vector) is bit-deterministic across thread counts.
#[derive(Clone, Debug)]
pub struct BiRank {
    /// `S^X` per bipartite, in [`EntityKind::ALL`] order.
    smoothers: [CsrMatrix; 3],
    /// Normalized per-bipartite weights `w_X`.
    weights: [f64; 3],
    /// Context-decay rate λ of the seed vector (Eq. 7).
    lambda: f64,
    config: BiRankConfig,
}

impl BiRank {
    /// Precomputes the normalized smoothing matrices over one compact
    /// representation. `alphas`/`lambda` come from the engine's
    /// regularization config so both relevance backends share one
    /// parameterization of bipartite importance and context decay.
    pub fn new(
        compact: &CompactMulti,
        alphas: [f64; 3],
        lambda: f64,
        config: BiRankConfig,
    ) -> Self {
        let smoothers = EntityKind::ALL.map(|kind| {
            let w = compact.matrix(kind);
            let dq = w.row_sums();
            let de = w.col_sums();
            let inv_sqrt = |v: &[f64]| -> Vec<f64> {
                v.iter()
                    .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
                    .collect()
            };
            w.scale_rows(&inv_sqrt(&dq)).scale_cols(&inv_sqrt(&de))
        });
        let total: f64 = alphas.iter().sum();
        let weights = if total > 0.0 {
            alphas.map(|a| a / total)
        } else {
            [1.0 / 3.0; 3]
        };
        BiRank {
            smoothers,
            weights,
            lambda,
            config,
        }
    }

    /// The seed vector `F⁰` (Eq. 7): 1 at the input, `e^{−λ·age}` per
    /// context query — identical to the default backend's seed.
    fn seed_vector(&self, n: usize, input_local: usize, context: &[(usize, u64)]) -> Vec<f64> {
        let mut f0 = vec![0.0; n];
        f0[input_local] = 1.0;
        for &(local, age) in context {
            f0[local] = (-self.lambda * age as f64).exp();
        }
        f0[input_local] = 1.0; // input wins over any context alias
        f0
    }
}

impl RelevanceBackend for BiRank {
    fn name(&self) -> &'static str {
        "birank"
    }

    fn relevance(&self, input_local: usize, context: &[(usize, u64)]) -> Option<(usize, Vec<f64>)> {
        let n = self.smoothers[0].rows();
        if n == 0 {
            return None;
        }
        let f0 = self.seed_vector(n, input_local, context);
        let mut q = f0.clone();
        for _ in 0..self.config.max_iterations {
            let mut acc = vec![0.0; n];
            for (s, &w) in self.smoothers.iter().zip(&self.weights) {
                if w == 0.0 {
                    continue;
                }
                // Entity side, then back to the query side.
                let e = s.mul_vec_transposed(&q);
                let back = s.mul_vec(&e);
                for (a, b) in acc.iter_mut().zip(&back) {
                    *a += w * b;
                }
            }
            let mut delta = 0.0;
            for i in 0..n {
                let next = self.config.gamma * acc[i] + (1.0 - self.config.gamma) * f0[i];
                delta += (next - q[i]).abs();
                q[i] = next;
            }
            if delta < self.config.tolerance {
                break;
            }
        }
        // Arg-max outside the input and its context, ties toward the
        // smaller index — the same rule as Eq. 15's first candidate.
        let excluded: Vec<usize> = std::iter::once(input_local)
            .chain(context.iter().map(|&(l, _)| l))
            .collect();
        let best = (0..n)
            .filter(|i| !excluded.contains(i) && q[*i] > 0.0)
            .max_by(|&a, &b| q[a].partial_cmp(&q[b]).unwrap().then(b.cmp(&a)));
        best.map(|i| (i, q))
    }
}

// --- Algorithm 1 (default diversification) ---------------------------------

/// The default (and reference) diversification backend: Algorithm 1's
/// cross-bipartite hitting-time arg-max over the relevance-gated pool,
/// with the ablation arm (`hitting_time: false`) and the
/// `relevance_bias` weighting of the arg-max. The selection logic is the
/// pre-refactor `Diversifier` loop, moved verbatim behind the trait.
///
/// The cross-bipartite walk is built on the first `select` that runs a
/// hitting-time round (`k ≥ 2` with `hitting_time` on) and kept for every
/// later call: a memo entry only ever served at `k = 1`, or in the
/// ablation arm, never pays for its three SpGEMMs.
#[derive(Clone, Debug)]
pub struct HittingTimeDiversify {
    /// The compact representation the walk is built from (a clone that
    /// shares the memo entry's storage).
    compact: CompactMulti,
    walk: OnceLock<CrossBipartiteWalk>,
    config: crate::diversify::DiversifyConfig,
}

impl HittingTimeDiversify {
    /// Prepares the backend; the cross-bipartite walker (per the config's
    /// [`crate::diversify::CrossMatrixChoice`]) is built on first use.
    pub fn new(compact: &CompactMulti, config: crate::diversify::DiversifyConfig) -> Self {
        HittingTimeDiversify {
            compact: compact.clone(),
            walk: OnceLock::new(),
            config,
        }
    }

    /// The cross-bipartite walker, built on the first call.
    fn walk(&self) -> &CrossBipartiteWalk {
        self.walk.get_or_init(|| match self.config.cross {
            crate::diversify::CrossMatrixChoice::Uniform => {
                CrossBipartiteWalk::uniform(&self.compact)
            }
            crate::diversify::CrossMatrixChoice::MassWeighted => {
                CrossBipartiteWalk::mass_weighted(&self.compact)
            }
        })
    }
}

impl DiversifyBackend for HittingTimeDiversify {
    fn name(&self) -> &'static str {
        "hitting-time"
    }

    fn select(
        &self,
        first: usize,
        f_star: &[f64],
        input_local: usize,
        context: &[(usize, u64)],
        k: usize,
    ) -> Vec<(usize, f64)> {
        // Both arms return the first candidate alone when `k ≤ 1`.
        if k <= 1 {
            return vec![(first, f_star[first])];
        }
        let mut selected = vec![first];
        let excluded: Vec<usize> = std::iter::once(input_local)
            .chain(context.iter().map(|&(l, _)| l))
            .collect();

        // Relevance pool: the top pool_factor·k queries by F*.
        let pool_size = (self.config.pool_factor * k).max(10);
        let mut pool: Vec<usize> = (0..self.compact.len())
            .filter(|i| !excluded.contains(i) && f_star[*i] > 0.0)
            .collect();
        pool.sort_by(|&a, &b| f_star[b].partial_cmp(&f_star[a]).unwrap().then(a.cmp(&b)));
        pool.truncate(pool_size);

        // Ablation arm: relevance-only ranking. The pool is already in
        // descending F* order, so the list is the first candidate plus the
        // next k−1 pool entries.
        if !self.config.hitting_time {
            for &i in pool.iter() {
                if selected.len() >= k {
                    break;
                }
                if i != first {
                    selected.push(i);
                }
            }
            return selected.into_iter().map(|l| (l, f_star[l])).collect();
        }

        // Lines 4–11: iteratively add the arg-max hitting-time query.
        // The target set is S ∪ {input}: candidates must diversify away
        // from both the picks so far and the input query itself. The
        // target list, hitting-time vector and sweep buffers persist
        // across rounds — each round only appends the newest pick and
        // re-solves in place.
        let mut targets = selected.clone();
        targets.push(input_local);
        let mut scratch = HittingTimeScratch::default();
        let mut h = Vec::new();
        let bias = self.config.relevance_bias;
        let f_max = pool
            .iter()
            .map(|&i| f_star[i])
            .fold(f64::MIN_POSITIVE, f64::max);
        // `bias == 0` multiplies every hitting time by exactly 1.0, so the
        // default arg-max is bit-identical to the unbiased Algorithm 1.
        let score = |h: &[f64], i: usize| -> f64 { h[i] * (f_star[i] / f_max).powf(bias) };
        let walk = self.walk();
        while selected.len() < k {
            walk.hitting_time_into(&targets, self.config.horizon, 0, &mut scratch, &mut h);
            let next = pool
                .iter()
                .copied()
                .filter(|i| !selected.contains(i))
                .max_by(|&a, &b| {
                    score(&h, a)
                        .partial_cmp(&score(&h, b))
                        .unwrap()
                        // Ties (e.g. both saturated) break toward relevance.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversify::DiversifyConfig;
    use crate::regularize::RegularizationConfig;
    use pqsda_graph::multi::MultiBipartite;
    use pqsda_graph::weighting::WeightingScheme;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, QueryLog, UserId};

    fn two_facet() -> (QueryLog, MultiBipartite, CompactMulti) {
        let entries = vec![
            LogEntry::new(UserId(0), "sun", Some("java.com"), 0),
            LogEntry::new(UserId(0), "sun java", Some("java.com"), 30),
            LogEntry::new(UserId(0), "java jdk", Some("jdk.com"), 60),
            LogEntry::new(UserId(1), "sun", Some("solar.org"), 1000),
            LogEntry::new(UserId(1), "sun solar energy", Some("solar.org"), 1030),
            LogEntry::new(UserId(1), "solar panels", Some("panels.com"), 1060),
            LogEntry::new(UserId(2), "sun java", Some("java.com"), 2000),
            LogEntry::new(UserId(2), "java jdk", Some("jdk.com"), 2030),
        ];
        let mut log = QueryLog::from_entries(&entries);
        let sessions = segment_sessions(&mut log, &SessionConfig::default());
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        let members: Vec<_> = (0..log.num_queries())
            .map(pqsda_querylog::QueryId::from_index)
            .collect();
        let compact = CompactMulti::project(&multi, members);
        (log, multi, compact)
    }

    fn birank(compact: &CompactMulti) -> BiRank {
        let reg = RegularizationConfig::default();
        BiRank::new(compact, reg.alphas, reg.lambda, BiRankConfig::default())
    }

    #[test]
    fn relevance_kind_maps_backends() {
        assert_eq!(RelevanceKind::of(Backend::Eq15), RelevanceKind::Eq15);
        assert_eq!(RelevanceKind::of(Backend::IntentFused), RelevanceKind::Eq15);
        assert_eq!(RelevanceKind::of(Backend::BiRank), RelevanceKind::BiRank);
    }

    #[test]
    fn birank_scores_spread_over_the_component_and_exclude_seeds() {
        let (log, _multi, compact) = two_facet();
        let b = birank(&compact);
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (best, scores) = b.relevance(sun, &[]).expect("connected input has mass");
        assert_ne!(best, sun, "arg-max never returns the input");
        assert!(scores[best] > 0.0);
        // Smoothing reaches both facets: java- and solar-side queries all
        // carry positive mass.
        for (i, &s) in scores.iter().enumerate() {
            assert!(s >= 0.0, "negative relevance at {i}");
        }
        let java = compact.local(log.find_query("java jdk").unwrap()).unwrap();
        let solar = compact
            .local(log.find_query("solar panels").unwrap())
            .unwrap();
        assert!(scores[java] > 0.0 && scores[solar] > 0.0);
    }

    #[test]
    fn birank_is_deterministic_and_context_sensitive() {
        let (log, _multi, compact) = two_facet();
        let b = birank(&compact);
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let ctx = compact.local(log.find_query("sun java").unwrap()).unwrap();
        let a = b.relevance(sun, &[(ctx, 30)]).unwrap();
        let c = b.relevance(sun, &[(ctx, 30)]).unwrap();
        assert_eq!(a.0, c.0);
        assert_eq!(
            a.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "repeat runs must be bit-identical"
        );
        // Context excluded from the arg-max.
        assert_ne!(a.0, ctx);
        // A fresh context weighs more than a stale one in the seed.
        let fresh = b.seed_vector(compact.len(), sun, &[(ctx, 10)]);
        let stale = b.seed_vector(compact.len(), sun, &[(ctx, 10_000)]);
        assert!(fresh[ctx] > stale[ctx]);
    }

    #[test]
    fn birank_tolerance_knob_caps_iterations() {
        let (log, _multi, compact) = two_facet();
        let reg = RegularizationConfig::default();
        // One iteration vs converged: both deterministic, different fixed
        // points — the knob is live.
        let one = BiRank::new(
            &compact,
            reg.alphas,
            reg.lambda,
            BiRankConfig {
                max_iterations: 1,
                ..BiRankConfig::default()
            },
        );
        let full = birank(&compact);
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (_, s1) = one.relevance(sun, &[]).unwrap();
        let (_, s2) = full.relevance(sun, &[]).unwrap();
        assert_ne!(
            s1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The relevance vector and first candidate Algorithm 1 starts from.
    fn first_and_relevance(compact: &CompactMulti, input: usize) -> (usize, Vec<f64>) {
        Regularizer::new(compact, RegularizationConfig::default())
            .first_candidate(input, &[])
            .expect("connected input has mass")
    }

    #[test]
    fn walk_is_not_built_for_k1_or_the_ablation_arm() {
        let (log, _multi, compact) = two_facet();
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (first, f_star) = first_and_relevance(&compact, sun);
        let on = HittingTimeDiversify::new(&compact, DiversifyConfig::default());
        assert_eq!(
            on.select(first, &f_star, sun, &[], 1),
            vec![(first, f_star[first])]
        );
        assert!(on.walk.get().is_none(), "k = 1 built the walk");
        let off = HittingTimeDiversify::new(
            &compact,
            DiversifyConfig {
                hitting_time: false,
                ..DiversifyConfig::default()
            },
        );
        for k in [1, 2, 10] {
            let picks = off.select(first, &f_star, sun, &[], k);
            assert_eq!(picks[0].0, first);
        }
        assert!(off.walk.get().is_none(), "the ablation arm built the walk");
    }

    #[test]
    fn walk_is_built_once_on_the_first_round() {
        let (log, _multi, compact) = two_facet();
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (first, f_star) = first_and_relevance(&compact, sun);
        let backend = HittingTimeDiversify::new(&compact, DiversifyConfig::default());
        backend.select(first, &f_star, sun, &[], 2);
        let built: *const CrossBipartiteWalk = backend.walk.get().expect("k = 2 builds the walk");
        let ten = backend.select(first, &f_star, sun, &[], 10);
        let fresh = HittingTimeDiversify::new(&compact, DiversifyConfig::default());
        assert_eq!(ten, fresh.select(first, &f_star, sun, &[], 10));
        assert!(
            std::ptr::eq(built, backend.walk.get().unwrap()),
            "the walk was rebuilt"
        );
        // The lazily built walk is the one an eager build would give.
        let eager = CrossBipartiteWalk::uniform(&compact);
        for kind in EntityKind::ALL {
            assert_eq!(backend.walk().layer(kind), eager.layer(kind), "{kind:?}");
        }
    }

    #[test]
    fn eq15_backend_delegates_to_the_regularizer() {
        let (log, _multi, compact) = two_facet();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let backend = Eq15Relevance::new(reg.clone());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let via_trait = backend.relevance(sun, &[]).unwrap();
        let direct = reg.first_candidate(sun, &[]).unwrap();
        assert_eq!(via_trait.0, direct.0);
        assert_eq!(
            via_trait.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
