//! The diversification component (paper §IV, Algorithm 1).
//!
//! Combines the regularization framework (first candidate, §IV-B) with the
//! cross-bipartite hitting time (§IV-C): after the most relevant candidate
//! is selected, each next candidate is the query with the **largest**
//! expected hitting time to the already-selected set `S` — queries tightly
//! connected to `S` hit it quickly and are suppressed, which pushes the
//! list across the facets of the input query. The discovery order is the
//! ranking ("sorted with a descending relevance … and potentially covers
//! different facets").

use crate::backend::{
    BiRank, BiRankConfig, DiversifyBackend, Eq15Relevance, HittingTimeDiversify, RelevanceBackend,
    RelevanceKind,
};
use crate::regularize::{RegularizationConfig, Regularizer};
use pqsda_graph::compact::CompactMulti;
use pqsda_querylog::QueryId;
use std::sync::Arc;

/// How the cross-bipartite teleport matrix `N` is chosen (paper Eq. 16).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrossMatrixChoice {
    /// Equal weights — the paper's choice "without any prior knowledge".
    #[default]
    Uniform,
    /// Teleport proportional to each bipartite's edge mass (extension; see
    /// [`CrossBipartiteWalk::mass_weighted`]).
    MassWeighted,
}

/// Parameters of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct DiversifyConfig {
    /// Regularization settings for the first candidate.
    pub regularization: RegularizationConfig,
    /// Iteration count `l` of the hitting-time recurrence.
    pub horizon: usize,
    /// The cross-bipartite teleport matrix.
    pub cross: CrossMatrixChoice,
    /// Candidate-pool size as a multiple of `k`: hitting-time selection
    /// runs over the top `pool_factor·k` queries by `F*` relevance
    /// (minimum 10). The paper requires the remaining candidates "to be
    /// relevant to the input query but also be different from each other";
    /// without this relevance gate the arg-max hitting time drifts to the
    /// most distant — i.e. least relevant — corner of the compact set.
    pub pool_factor: usize,
    /// Whether to run the hitting-time selection loop (lines 4–11 of
    /// Algorithm 1). When `false` the list is the first candidate followed
    /// by the remaining pool in descending `F*` relevance — the "diversity
    /// off" ablation arm of the scenario quality gates, which keeps the
    /// regularized relevance ranking but drops the facet-spreading step.
    pub hitting_time: bool,
    /// Relevance exponent of the hitting-time arg-max. The paper requires
    /// the remaining candidates "to be relevant to the input query but
    /// also be different from each other"; the pool gate enforces a hard
    /// relevance floor, and this knob additionally *weights* the arg-max:
    /// each candidate scores `h_i · (F*_i / F*_max)^bias`, so a distant
    /// but barely-relevant pool-tail query no longer beats a moderately
    /// distant on-topic one. `0.0` (the default) reproduces the pure
    /// Algorithm 1 arg-max exactly.
    pub relevance_bias: f64,
    /// Knobs of the [`BiRank`] relevance backend (only consulted when a
    /// request selects it; the default Eq. 15 path never reads them).
    pub birank: BiRankConfig,
}

impl Default for DiversifyConfig {
    fn default() -> Self {
        DiversifyConfig {
            regularization: RegularizationConfig::default(),
            horizon: 20,
            cross: CrossMatrixChoice::default(),
            pool_factor: 5,
            hitting_time: true,
            relevance_bias: 0.0,
            birank: BiRankConfig::default(),
        }
    }
}

/// The two-stage scoring pipeline over one compact representation:
/// a [`RelevanceBackend`] producing the relevance vector and the first
/// candidate, then a [`DiversifyBackend`] turning it into the ranked
/// selection. [`Diversifier::new`] wires the paper's defaults (Eq. 15 +
/// Algorithm 1) and is bit-identical to the pre-backend monolith;
/// [`Diversifier::for_backend`] swaps the relevance stage per request.
#[derive(Clone)]
pub struct Diversifier {
    relevance: Arc<dyn RelevanceBackend>,
    diversify: Arc<dyn DiversifyBackend>,
}

impl std::fmt::Debug for Diversifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Diversifier")
            .field("relevance", &self.relevance.name())
            .field("diversify", &self.diversify.name())
            .finish()
    }
}

impl Diversifier {
    /// Prepares the paper's default pipeline: Eq. 15 relevance +
    /// Algorithm 1 hitting-time diversification.
    pub fn new(compact: &CompactMulti, config: DiversifyConfig) -> Self {
        Diversifier::for_backend(compact, config, RelevanceKind::Eq15)
    }

    /// Prepares the pipeline with the chosen relevance model. The
    /// diversification stage is always Algorithm 1 — backends differ in
    /// *how* candidates are scored, not in how the list spreads facets.
    pub fn for_backend(
        compact: &CompactMulti,
        config: DiversifyConfig,
        kind: RelevanceKind,
    ) -> Self {
        let relevance: Arc<dyn RelevanceBackend> = match kind {
            RelevanceKind::Eq15 => Arc::new(Eq15Relevance::new(Regularizer::new(
                compact,
                config.regularization,
            ))),
            RelevanceKind::BiRank => Arc::new(BiRank::new(
                compact,
                config.regularization.alphas,
                config.regularization.lambda,
                config.birank,
            )),
        };
        Diversifier {
            relevance,
            diversify: Arc::new(HittingTimeDiversify::new(compact, config)),
        }
    }

    /// The relevance backend's stable name (reports, debug output).
    pub fn relevance_name(&self) -> &'static str {
        self.relevance.name()
    }

    /// Algorithm 1: returns up to `k` *local indices* in rank order.
    ///
    /// `input_local` is the input query's local index; `context` pairs
    /// each context query's local index with its age in seconds.
    pub fn select(&self, input_local: usize, context: &[(usize, u64)], k: usize) -> Vec<usize> {
        self.select_scored(input_local, context, k)
            .into_iter()
            .map(|(l, _)| l)
            .collect()
    }

    /// [`Diversifier::select`] with each pick's `F*` regularized relevance
    /// (Eq. 15) attached. The selection and its order are exactly those of
    /// `select` — the score is a passenger, used by the serving layer to
    /// merge candidate lists from independent shards by relevance.
    pub fn select_scored(
        &self,
        input_local: usize,
        context: &[(usize, u64)],
        k: usize,
    ) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        // Stage 1 (Algorithm 1 lines 1–3): the relevance backend scores
        // the compact set and names the first candidate.
        let Some((first, f_star)) = self.relevance.relevance(input_local, context) else {
            return Vec::new();
        };
        // Stage 2 (lines 4–11): the diversification backend spreads the
        // list across facets.
        self.diversify
            .select(first, &f_star, input_local, context, k)
    }

    /// Convenience: resolves the selection to global [`QueryId`]s.
    pub fn select_global(
        &self,
        compact: &CompactMulti,
        input_local: usize,
        context: &[(usize, u64)],
        k: usize,
    ) -> Vec<QueryId> {
        self.select(input_local, context, k)
            .into_iter()
            .map(|l| compact.global(l))
            .collect()
    }

    /// [`Diversifier::select_scored`] resolved to global [`QueryId`]s.
    pub fn select_global_scored(
        &self,
        compact: &CompactMulti,
        input_local: usize,
        context: &[(usize, u64)],
        k: usize,
    ) -> Vec<(QueryId, f64)> {
        self.select_scored(input_local, context, k)
            .into_iter()
            .map(|(l, s)| (compact.global(l), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_graph::multi::MultiBipartite;
    use pqsda_graph::weighting::WeightingScheme;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, QueryLog, UserId};

    /// A two-facet world around "sun": a java cluster and a solar cluster,
    /// session- and term-linked.
    fn two_facet() -> (QueryLog, MultiBipartite, CompactMulti) {
        let entries = vec![
            // java cluster (user 0, one session)
            LogEntry::new(UserId(0), "sun", Some("java.com"), 0),
            LogEntry::new(UserId(0), "sun java", Some("java.com"), 30),
            LogEntry::new(UserId(0), "java jdk", Some("jdk.com"), 60),
            // solar cluster (user 1, one session)
            LogEntry::new(UserId(1), "sun", Some("solar.org"), 1000),
            LogEntry::new(UserId(1), "sun solar energy", Some("solar.org"), 1030),
            LogEntry::new(UserId(1), "solar panels", Some("panels.com"), 1060),
            // another java-leaning user to make java the dominant facet
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

    #[test]
    fn first_is_relevant_then_facets_alternate() {
        let (log, _multi, compact) = two_facet();
        let d = Diversifier::new(&compact, DiversifyConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let picks = d.select_global(&compact, sun, &[], 4);
        assert!(!picks.is_empty());
        let texts: Vec<&str> = picks.iter().map(|&q| log.query_text(q)).collect();
        // The suggestion list must cover BOTH facets within the top 3.
        let top3 = &texts[..texts.len().min(3)];
        let has_java = top3.iter().any(|t| t.contains("java"));
        let has_solar = top3.iter().any(|t| t.contains("solar"));
        assert!(
            has_java && has_solar,
            "expected both facets in the top 3, got {texts:?}"
        );
    }

    #[test]
    fn never_suggests_input_or_context() {
        let (log, _multi, compact) = two_facet();
        let d = Diversifier::new(&compact, DiversifyConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let ctx = compact.local(log.find_query("sun java").unwrap()).unwrap();
        let picks = d.select(sun, &[(ctx, 30)], 5);
        assert!(!picks.contains(&sun));
        assert!(!picks.contains(&ctx));
    }

    #[test]
    fn k_zero_and_k_large() {
        let (log, _multi, compact) = two_facet();
        let d = Diversifier::new(&compact, DiversifyConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        assert!(d.select(sun, &[], 0).is_empty());
        let all = d.select(sun, &[], 100);
        // Bounded by the reachable member count (minus the input).
        assert!(all.len() < compact.len());
        // No duplicates.
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn scored_selection_matches_plain_and_carries_relevance() {
        let (log, _multi, compact) = two_facet();
        let d = Diversifier::new(&compact, DiversifyConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let plain = d.select(sun, &[], 4);
        let scored = d.select_scored(sun, &[], 4);
        assert_eq!(
            plain,
            scored.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            "scored selection must be the same ranking"
        );
        // Scores are the F* relevances: positive (the pool filters on
        // f_star > 0) and maximal for the first pick (Algorithm 1 line 3).
        assert!(scored.iter().all(|&(_, s)| s > 0.0));
        let first = scored[0].1;
        assert!(scored.iter().all(|&(_, s)| s <= first));
    }

    #[test]
    fn selection_is_deterministic() {
        let (log, _multi, compact) = two_facet();
        let d = Diversifier::new(&compact, DiversifyConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        assert_eq!(d.select(sun, &[], 4), d.select(sun, &[], 4));
    }

    #[test]
    fn hitting_time_off_gives_relevance_order() {
        let (log, _multi, compact) = two_facet();
        let cfg = DiversifyConfig {
            hitting_time: false,
            ..DiversifyConfig::default()
        };
        let d = Diversifier::new(&compact, cfg);
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let picks = d.select_scored(sun, &[], 4);
        assert!(!picks.is_empty());
        // First pick is still Eq. 15's argmax; the rest are in strictly
        // non-increasing F* order (pure relevance ranking).
        for w in picks[1..].windows(2) {
            assert!(w[0].1 >= w[1].1, "relevance order violated: {picks:?}");
        }
        // No duplicates, never the input.
        let mut locals: Vec<usize> = picks.iter().map(|&(l, _)| l).collect();
        assert!(!locals.contains(&sun));
        locals.sort_unstable();
        locals.dedup();
        assert_eq!(locals.len(), picks.len());
    }

    #[test]
    fn diversified_list_beats_greedy_relevance_on_facet_coverage() {
        // The motivating comparison: pure relevance ranking (F* order)
        // concentrates on the dominant facet; Algorithm 1 covers both.
        let (log, _multi, compact) = two_facet();
        let cfg = DiversifyConfig::default();
        let d = Diversifier::new(&compact, cfg);
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();

        // Greedy-by-relevance top 2.
        let reg = Regularizer::new(&compact, cfg.regularization);
        let (_, f) = reg.first_candidate(sun, &[]).unwrap();
        let mut by_rel: Vec<usize> = (0..compact.len())
            .filter(|&i| i != sun && f[i] > 0.0)
            .collect();
        by_rel.sort_by(|&a, &b| f[b].partial_cmp(&f[a]).unwrap());
        let facet = |i: usize| {
            log.query_text(compact.global(i)).contains("java") as u8
                + 2 * log.query_text(compact.global(i)).contains("solar") as u8
        };
        let greedy_facets: std::collections::HashSet<u8> =
            by_rel.iter().take(2).map(|&i| facet(i)).collect();
        let div = d.select(sun, &[], 2);
        let div_facets: std::collections::HashSet<u8> = div.iter().map(|&i| facet(i)).collect();
        assert!(
            div_facets.len() >= greedy_facets.len(),
            "diversified list must cover at least as many facets"
        );
    }
}
