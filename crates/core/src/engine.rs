//! The end-to-end PQS-DA engine (paper Fig. 1).
//!
//! Wires the pipeline together behind the common
//! [`Suggester`] interface: compact expansion → regularized first
//! candidate → cross-bipartite hitting-time diversification → UPM
//! personalization with Borda fusion. Without a personalizer (or for an
//! anonymous request) the engine returns the diversification ranking —
//! exactly the intermediate result the paper evaluates in §VI-B.

use crate::backend::RelevanceKind;
use crate::cache::{CacheConfig, CacheStats, ShardedLruCache};
use crate::diversify::{Diversifier, DiversifyConfig};
use crate::personalize::Personalizer;
use parking_lot::Mutex;
use pqsda_baselines::{Backend, SuggestRequest, Suggester};
use pqsda_graph::compact::{CompactConfig, CompactMulti};
use pqsda_graph::multi::MultiBipartite;
use pqsda_graph::weighting::WeightingScheme;
use pqsda_querylog::session::{
    restamp_appended, segment_sessions, segment_sessions_append, SessionConfig,
};
use pqsda_querylog::{LogEntry, QueryId, QueryLog};
use pqsda_topics::{Corpus, TrainConfig, Upm, UpmConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Algorithm 1 selections one expansion-memo entry keeps resident; the
/// oldest is replaced first.
const SELECTION_SLOTS: usize = 4;

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct PqsDaConfig {
    /// Compact-representation expansion settings (§IV-A).
    pub compact: CompactConfig,
    /// Diversification settings (§IV-B/C).
    pub diversify: DiversifyConfig,
    /// Sizing of the per-seed-set expansion memo.
    pub cache: CacheConfig,
}

/// UPM training options for [`PqsDa::build_from_entries`].
#[derive(Clone, Copy, Debug)]
pub struct ProfileTrainOptions {
    /// Topic count `K`.
    pub num_topics: usize,
    /// Gibbs sweeps.
    pub iterations: usize,
    /// Sampler seed.
    pub seed: u64,
    /// Hyperparameter-learning cadence (0 = off).
    pub hyper_every: usize,
    /// L-BFGS iterations per hyperparameter update.
    pub hyper_iterations: usize,
    /// Training threads (0 = auto).
    pub threads: usize,
}

impl Default for ProfileTrainOptions {
    fn default() -> Self {
        ProfileTrainOptions {
            num_topics: 10,
            iterations: 60,
            seed: 42,
            hyper_every: 20,
            hyper_iterations: 10,
            threads: 1,
        }
    }
}

impl ProfileTrainOptions {
    fn upm_config(&self) -> UpmConfig {
        UpmConfig {
            base: TrainConfig {
                num_topics: self.num_topics,
                iterations: self.iterations,
                seed: self.seed,
                ..TrainConfig::default()
            },
            hyper_every: self.hyper_every,
            hyper_iterations: self.hyper_iterations,
            threads: self.threads,
        }
    }
}

/// What [`PqsDa::apply_delta`] touched at each layer — the delta analogue
/// of a build report.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineDeltaReport {
    /// Log records the delta appended (after normalization drops).
    pub new_records: usize,
    /// Query rows whose multi-bipartite weights changed (union over the
    /// three bipartites).
    pub changed_rows: usize,
    /// Whether the CF-IQF rescope had to reweight every row (the query
    /// vocabulary grew, so every `|Q|`-dependent weight moved).
    pub full_reweight: bool,
    /// Expansion-memo entries carried into the new engine unchanged.
    pub cache_retained: usize,
    /// Expansion-memo entries dropped by scoped invalidation.
    pub cache_invalidated: usize,
    /// Whether the personalizer was warm-started (as opposed to
    /// cold-trained or absent).
    pub personalizer_warm: bool,
}

/// Everything needed to build a [`PqsDa`] from raw log entries — the
/// whole offline pipeline (interning, session segmentation, weighting,
/// optional UPM training) in one value, so a serving shard can be rebuilt
/// from any log partition with the exact recipe of the full engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineBuildOptions {
    /// Edge weighting for the multi-bipartite representation.
    pub scheme: WeightingScheme,
    /// Session segmentation settings.
    pub session: SessionConfig,
    /// Engine (expansion/diversification/cache) settings.
    pub config: PqsDaConfig,
    /// `Some` trains a UPM personalizer on the entries; `None` builds the
    /// diversification-only engine.
    pub personalize: Option<ProfileTrainOptions>,
}

/// The PQS-DA query-suggestion engine.
pub struct PqsDa {
    log: QueryLog,
    multi: MultiBipartite,
    personalizer: Option<Personalizer>,
    config: PqsDaConfig,
    /// Memo of compact representations per (relevance model, seed set) —
    /// online suggestion re-serves hot queries, and a miss pays for the
    /// expansion (§IV-A) plus the Eq. 15 assembly, which gathers the
    /// members' similarities from the representation's per-bipartite Gram
    /// matrices instead of multiplying them out. Those are built on the
    /// engine's first miss (a fresh engine from a delta or a snapshot load
    /// rebuilds them there) and owned by the engine's bipartites: an
    /// entry's compact representation holds only weak handles, so entries
    /// carried across `apply_delta` do not keep the previous generation's
    /// Gram matrices resident. The entry's Algorithm 1 walk is built inside it
    /// on the first request with `k ≥ 2`, so k = 1 traffic never pays
    /// for it. Each entry also keeps its last [`SELECTION_SLOTS`]
    /// diversified lists, keyed by the resolved context (local index and
    /// age) and `k`: a repeated request skips the CG solve and the
    /// Algorithm 1 rounds. Sharded and LRU-bounded so concurrent requests
    /// don't serialize on one lock and residency stays bounded.
    ///
    /// The key carries the [`RelevanceKind`], not the raw request
    /// backend: `Eq15` and `IntentFused` run the identical expansion,
    /// relevance and diversification (intent fusion only reorders
    /// downstream of the memo), so sharing their entry is exact — while
    /// `BiRank` scores differently and must never share one.
    cache: ShardedLruCache<(RelevanceKind, Vec<QueryId>), CompactCacheEntry>,
    /// Requests served from an entry's selection memo.
    selection_hits: AtomicU64,
    /// Requests that ran Algorithm 1 and stored their selection.
    selection_misses: AtomicU64,
}

struct CompactCacheEntry {
    compact: CompactMulti,
    diversifier: Diversifier,
    /// Resident Algorithm 1 selections, oldest first, at most
    /// [`SELECTION_SLOTS`]. The entry fixes the relevance kind, the seed
    /// set and the input (`seeds[0]`), so the selection is a pure function
    /// of the resolved context and `k` — the slot key.
    selections: Mutex<VecDeque<SelectionSlot>>,
}

struct SelectionSlot {
    /// Resolved context in request order, duplicates kept:
    /// (local index, age).
    context: Vec<(usize, u64)>,
    k: usize,
    /// The diversified list before personalization.
    selection: Vec<(QueryId, f64)>,
}

impl SelectionSlot {
    fn serves(&self, context: &[(usize, u64)], k: usize) -> bool {
        self.k == k && self.context == context
    }
}

impl CompactCacheEntry {
    fn resident(&self, context: &[(usize, u64)], k: usize) -> Option<Vec<(QueryId, f64)>> {
        self.selections
            .lock()
            .iter()
            .find(|s| s.serves(context, k))
            .map(|s| s.selection.clone())
    }

    /// Stores a selection unless a racing request already did, replacing
    /// the oldest slot when all are taken.
    fn store(&self, context: Vec<(usize, u64)>, k: usize, selection: &[(QueryId, f64)]) {
        let mut slots = self.selections.lock();
        if slots.iter().any(|s| s.serves(&context, k)) {
            return;
        }
        if slots.len() == SELECTION_SLOTS {
            slots.pop_front();
        }
        slots.push_back(SelectionSlot {
            context,
            k,
            selection: selection.to_vec(),
        });
    }
}

impl PqsDa {
    /// Builds the engine from a sessionized log and its multi-bipartite
    /// representation. Pass a [`Personalizer`] to enable §V; `None` yields
    /// the diversification-only engine of §VI-B.
    pub fn new(
        log: QueryLog,
        multi: MultiBipartite,
        personalizer: Option<Personalizer>,
        config: PqsDaConfig,
    ) -> Self {
        assert_eq!(
            log.num_queries(),
            multi.num_queries(),
            "log and representation disagree on query count"
        );
        PqsDa {
            log,
            multi,
            personalizer,
            cache: ShardedLruCache::new(config.cache),
            selection_hits: AtomicU64::new(0),
            selection_misses: AtomicU64::new(0),
            config,
        }
    }

    /// Runs the whole offline pipeline on raw entries: interning +
    /// chronological sort, session segmentation, multi-bipartite
    /// construction, optional UPM training. This is how a serving shard is
    /// built from a log partition — and because [`QueryLog::from_entries`]
    /// is deterministic, building from the *full* entry list reproduces
    /// the unsharded engine exactly.
    pub fn build_from_entries(entries: &[LogEntry], opts: &EngineBuildOptions) -> Self {
        let mut log = QueryLog::from_entries(entries);
        let sessions = segment_sessions(&mut log, &opts.session);
        let multi = MultiBipartite::build(&log, &sessions, opts.scheme);
        let personalizer = opts.personalize.and_then(|p| {
            let corpus = Corpus::build(&log, &sessions);
            if corpus.num_docs() == 0 {
                // A partition can land zero usable user documents; serve
                // it unpersonalized rather than training on nothing.
                return None;
            }
            let upm = Upm::train(&corpus, &p.upm_config());
            Some(Personalizer::new(upm, &corpus, log.num_users()))
        });
        PqsDa::new(log, multi, personalizer, opts.config)
    }

    /// Applies a batch of new log entries as a **delta**, producing the
    /// engine for the grown log without rebuilding it from scratch: the
    /// log appends in place ([`QueryLog::append_entries`]), the
    /// multi-bipartite takes a scoped CF-IQF reweight
    /// ([`MultiBipartite::apply_delta`]), the expansion memo keeps every
    /// entry the delta provably cannot affect, and the personalizer
    /// warm-starts from its converged sampler state
    /// ([`crate::personalize::Personalizer::retrain_delta`]).
    ///
    /// `opts` must be the options the engine was originally built with.
    /// Returns `None` when any layer cannot take the delta incrementally —
    /// out-of-order entries, a representation without raw counts, an
    /// entropy-weighted scheme, or a store-loaded personalizer — and the
    /// caller falls back to a cold [`PqsDa::build_from_entries`] over the
    /// concatenated log.
    ///
    /// Equivalence contract (property-tested in `pqsda-serve`): the graph,
    /// every unpersonalized suggestion, and every retained cache entry are
    /// **bit-identical** to the cold rebuild's; a warm-started personalizer
    /// ranks the same candidate set with bounded quality drift (its Gibbs
    /// chain differs from the cold chain).
    pub fn apply_delta(
        &self,
        entries: &[LogEntry],
        opts: &EngineBuildOptions,
    ) -> Option<(PqsDa, EngineDeltaReport)> {
        let mut log = self.log.clone();
        let delta = log.append_entries(entries)?;
        let mut report = EngineDeltaReport {
            new_records: delta.num_new_records(&log),
            ..EngineDeltaReport::default()
        };
        // The graph layer reads session membership from the record stamps
        // and only needs the session count, so the session list itself is
        // materialized only when the personalizer will build a corpus.
        let sessions = opts
            .personalize
            .is_some()
            .then(|| segment_sessions_append(&mut log, &opts.session, delta.first_record));
        let num_sessions = match &sessions {
            Some(s) => s.len(),
            None => restamp_appended(&mut log, &opts.session, delta.first_record),
        };
        let (multi, graph) = self.multi.apply_delta(&log, num_sessions, &delta)?;
        report.changed_rows = graph.changed_rows.len();
        report.full_reweight = graph.full_reweight;

        let mut warm = false;
        let personalizer = match (&self.personalizer, opts.personalize) {
            (Some(p), Some(_)) => {
                let sessions = sessions
                    .as_deref()
                    .expect("materialized when personalizing");
                let corpus = Corpus::build(&log, sessions);
                if corpus.num_docs() == 0 {
                    None
                } else {
                    let np = p.retrain_delta(&corpus, &delta.touched_users, log.num_users())?;
                    warm = true;
                    Some(np)
                }
            }
            (None, Some(p)) => {
                // The base partition had no usable user documents; the
                // delta may have created the first ones — train cold.
                let sessions = sessions
                    .as_deref()
                    .expect("materialized when personalizing");
                let corpus = Corpus::build(&log, sessions);
                (corpus.num_docs() > 0).then(|| {
                    let upm = Upm::train(&corpus, &p.upm_config());
                    Personalizer::new(upm, &corpus, log.num_users())
                })
            }
            _ => None,
        };
        report.personalizer_warm = warm;

        let engine = PqsDa::new(log, multi, personalizer, opts.config);

        // Scoped expansion-memo carry-over. An expansion reads exactly the
        // rows of its member set and of the members' one-hop neighbors
        // (candidate mass flows through shared entities), so an entry is
        // reusable iff no member lies in the changed rows' one-hop
        // neighborhood — one-hop adjacency is symmetric, and the merged
        // graph's adjacency is a superset of the old one's, so the danger
        // set is computed on the new representation. A full reweight
        // leaves nothing reusable.
        if graph.full_reweight {
            report.cache_invalidated = self.cache.len();
        } else {
            let mut danger = vec![false; engine.multi.num_queries()];
            for &r in &graph.changed_rows {
                danger[r as usize] = true;
                for q in engine.multi.one_hop_neighbors(r as usize) {
                    danger[q] = true;
                }
            }
            for (key, value) in self.cache.entries() {
                if value.compact.queries().iter().all(|q| !danger[q.index()]) {
                    engine.cache.insert(key, value);
                    report.cache_retained += 1;
                } else {
                    report.cache_invalidated += 1;
                }
            }
        }
        Some((engine, report))
    }

    /// The engine's log (for resolving suggestion text).
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// The multi-bipartite representation (for structural digests).
    pub fn multi(&self) -> &MultiBipartite {
        &self.multi
    }

    /// The personalization component, if enabled.
    pub fn personalizer(&self) -> Option<&Personalizer> {
        self.personalizer.as_ref()
    }

    /// Expansion-memo counters (hits/misses/evictions) and the selection
    /// memo's hits/misses.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            selection_hits: self.selection_hits.load(Ordering::Relaxed),
            selection_misses: self.selection_misses.load(Ordering::Relaxed),
            ..self.cache.stats()
        }
    }

    /// Runs only the diversification component (§IV) — the paper's
    /// intermediate result.
    pub fn diversify(&self, req: &SuggestRequest) -> Vec<QueryId> {
        self.diversify_scored(req)
            .into_iter()
            .map(|(q, _)| q)
            .collect()
    }

    /// [`PqsDa::diversify`] with each suggestion's `F*` regularized
    /// relevance (Eq. 15) attached — the ranking is identical; the score
    /// is what a shard router merges candidate lists by.
    pub fn diversify_scored(&self, req: &SuggestRequest) -> Vec<(QueryId, f64)> {
        if req.query.index() >= self.log.num_queries() || req.k == 0 {
            return Vec::new();
        }
        // Order-preserving full dedup. (`Vec::dedup` only folds *adjacent*
        // duplicates, so e.g. [q, c, q] and [q, c] used to produce distinct
        // cache keys — and distinct expansions — for the same seed set.)
        let mut seeds = vec![req.query];
        seeds.extend(req.context.iter().copied());
        let mut seen = std::collections::HashSet::with_capacity(seeds.len());
        seeds.retain(|q| seen.insert(*q));

        let kind = RelevanceKind::of(req.backend);
        let entry = self.cache.get_or_insert_with((kind, seeds.clone()), || {
            let compact = CompactMulti::expand(&self.multi, &seeds, &self.config.compact);
            let diversifier = Diversifier::for_backend(&compact, self.config.diversify, kind);
            CompactCacheEntry {
                compact,
                diversifier,
                selections: Mutex::new(VecDeque::with_capacity(SELECTION_SLOTS)),
            }
        });

        let input_local = entry
            .compact
            .local(req.query)
            .expect("input query is always a seed");
        let context: Vec<(usize, u64)> = req
            .context
            .iter()
            .zip(&req.context_times)
            .filter_map(|(&q, &t)| {
                entry
                    .compact
                    .local(q)
                    .map(|l| (l, req.query_time.saturating_sub(t)))
            })
            .collect();
        if let Some(selection) = entry.resident(&context, req.k) {
            self.selection_hits.fetch_add(1, Ordering::Relaxed);
            return selection;
        }
        self.selection_misses.fetch_add(1, Ordering::Relaxed);
        // Runs without the slot lock; a racing request computes the same
        // list, and only the first store takes a slot.
        let selection =
            entry
                .diversifier
                .select_global_scored(&entry.compact, input_local, &context, req.k);
        entry.store(context, req.k, &selection);
        selection
    }

    /// [`Suggester::suggest`] with relevance scores attached: the
    /// diversified, optionally personalization-reranked list, where each
    /// entry keeps the `F*` score it earned in diversification. The query
    /// sequence is exactly `suggest`'s.
    pub fn suggest_scored(&self, req: &SuggestRequest) -> Vec<(QueryId, f64)> {
        let diversified = self.diversify_scored(req);
        match (&self.personalizer, req.user) {
            (Some(p), Some(user)) => {
                let qids: Vec<QueryId> = diversified.iter().map(|&(q, _)| q).collect();
                let reranked = match req.backend {
                    // Intent fusion: the session-intent ranking joins the
                    // Borda aggregation as a third list. For users without
                    // a profile `rerank_intent` returns the diversified
                    // order, matching `rerank` — so IntentFused degrades
                    // to Eq15 exactly outside the personalized path.
                    Backend::IntentFused => {
                        p.rerank_intent(user, &self.log, req.query, &req.context, &qids)
                    }
                    Backend::Eq15 | Backend::BiRank => p.rerank(user, &self.log, &qids),
                };
                // Scores travel with their query through the rerank, a
                // permutation of the ≤ k distinct diversified ids.
                reranked
                    .into_iter()
                    .map(|q| {
                        let score = diversified.iter().find(|&&(d, _)| d == q);
                        (q, score.map(|&(_, s)| s).unwrap_or(0.0))
                    })
                    .collect()
            }
            _ => diversified,
        }
    }

    /// Serves a batch of requests, fanning the batch out across threads
    /// (`0` = auto; see [`pqsda_parallel`]). Output order matches input
    /// order, and each answer is identical to calling
    /// [`Suggester::suggest`] serially — requests share the expansion memo
    /// but touch no other mutable state.
    pub fn suggest_many_with_threads(
        &self,
        reqs: &[SuggestRequest],
        threads: usize,
    ) -> Vec<Vec<QueryId>> {
        let threads = pqsda_parallel::effective_threads(threads, reqs.len(), 1);
        pqsda_parallel::map_indexed(reqs.len(), threads, |i| self.suggest(&reqs[i]))
    }

    /// [`PqsDa::suggest_many_with_threads`] with automatic thread count.
    pub fn suggest_many(&self, reqs: &[SuggestRequest]) -> Vec<Vec<QueryId>> {
        self.suggest_many_with_threads(reqs, 0)
    }
}

impl Suggester for PqsDa {
    fn name(&self) -> &str {
        if self.personalizer.is_some() {
            "PQS-DA"
        } else {
            "PQS-DA (div)"
        }
    }

    fn suggest(&self, req: &SuggestRequest) -> Vec<QueryId> {
        self.suggest_scored(req)
            .into_iter()
            .map(|(q, _)| q)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_graph::weighting::WeightingScheme;
    use pqsda_querylog::{LogEntry, UserId};
    use pqsda_topics::{Corpus, TrainConfig, Upm, UpmConfig};

    /// Two facets of "sun" with distinct user bases:
    /// users 0/2 are java people, user 1 is a solar person.
    fn build_engine(with_personalization: bool) -> PqsDa {
        let mut entries = Vec::new();
        for rep in 0..4u64 {
            let base = rep * 50_000;
            entries.push(LogEntry::new(UserId(0), "sun", Some("java.com"), base));
            entries.push(LogEntry::new(
                UserId(0),
                "sun java",
                Some("java.com"),
                base + 30,
            ));
            entries.push(LogEntry::new(
                UserId(0),
                "java jdk",
                Some("jdk.com"),
                base + 60,
            ));
            entries.push(LogEntry::new(
                UserId(1),
                "sun",
                Some("solar.org"),
                base + 1000,
            ));
            entries.push(LogEntry::new(
                UserId(1),
                "sun solar energy",
                Some("solar.org"),
                base + 1030,
            ));
            entries.push(LogEntry::new(
                UserId(1),
                "solar panels",
                Some("panels.com"),
                base + 1060,
            ));
            entries.push(LogEntry::new(
                UserId(2),
                "sun java",
                Some("java.com"),
                base + 2000,
            ));
        }
        let mut log = QueryLog::from_entries(&entries);
        let sessions = pqsda_querylog::session::segment_sessions(
            &mut log,
            &pqsda_querylog::session::SessionConfig::default(),
        );
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        let personalizer = with_personalization.then(|| {
            let corpus = Corpus::build(&log, &sessions);
            let upm = Upm::train(
                &corpus,
                &UpmConfig {
                    base: TrainConfig {
                        num_topics: 2,
                        iterations: 30,
                        seed: 13,
                        ..TrainConfig::default()
                    },
                    hyper_every: 0,
                    hyper_iterations: 0,
                    threads: 1,
                },
            );
            Personalizer::new(upm, &corpus, log.num_users())
        });
        PqsDa::new(log, multi, personalizer, PqsDaConfig::default())
    }

    #[test]
    fn diversified_suggestions_cover_facets() {
        let engine = build_engine(false);
        let sun = engine.log().find_query("sun").unwrap();
        let out = engine.suggest(&SuggestRequest::simple(sun, 3));
        assert!(!out.is_empty());
        let texts: Vec<&str> = out.iter().map(|&q| engine.log().query_text(q)).collect();
        assert!(
            texts.iter().any(|t| t.contains("java")) && texts.iter().any(|t| t.contains("solar")),
            "{texts:?}"
        );
    }

    #[test]
    fn personalization_reranks_per_user() {
        let engine = build_engine(true);
        let sun = engine.log().find_query("sun").unwrap();
        let for_java = engine.suggest(&SuggestRequest::simple(sun, 4).for_user(UserId(0)));
        let for_solar = engine.suggest(&SuggestRequest::simple(sun, 4).for_user(UserId(1)));
        let texts = |qs: &[QueryId]| {
            qs.iter()
                .map(|&q| engine.log().query_text(q).to_owned())
                .collect::<Vec<_>>()
        };
        // User-dependent order: the java user's top suggestion mentions
        // java; the solar user's mentions solar.
        assert!(
            texts(&for_java)[0].contains("java"),
            "java user got {:?}",
            texts(&for_java)
        );
        assert!(
            texts(&for_solar)[0].contains("solar"),
            "solar user got {:?}",
            texts(&for_solar)
        );
        // Both lists still cover both facets (diversity survives
        // personalization — the paper's §VI-C observation).
        for out in [&for_java, &for_solar] {
            let ts = texts(out);
            assert!(
                ts.iter().any(|t| t.contains("java")) && ts.iter().any(|t| t.contains("solar")),
                "{ts:?}"
            );
        }
    }

    #[test]
    fn anonymous_requests_fall_back_to_diversification() {
        let engine = build_engine(true);
        let sun = engine.log().find_query("sun").unwrap();
        let anon = engine.suggest(&SuggestRequest::simple(sun, 3));
        let div = engine.diversify(&SuggestRequest::simple(sun, 3));
        assert_eq!(anon, div);
    }

    #[test]
    fn caching_is_transparent() {
        let engine = build_engine(false);
        let sun = engine.log().find_query("sun").unwrap();
        let a = engine.suggest(&SuggestRequest::simple(sun, 3));
        let b = engine.suggest(&SuggestRequest::simple(sun, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(build_engine(false).name(), "PQS-DA (div)");
        assert_eq!(build_engine(true).name(), "PQS-DA");
    }

    #[test]
    fn scored_suggest_matches_plain_ranking() {
        for personalized in [false, true] {
            let engine = build_engine(personalized);
            let sun = engine.log().find_query("sun").unwrap();
            for req in [
                SuggestRequest::simple(sun, 4),
                SuggestRequest::simple(sun, 4).for_user(UserId(1)),
            ] {
                let plain = engine.suggest(&req);
                let scored = engine.suggest_scored(&req);
                assert_eq!(
                    plain,
                    scored.iter().map(|&(q, _)| q).collect::<Vec<_>>(),
                    "personalized={personalized} user={:?}",
                    req.user
                );
            }
        }
    }

    #[test]
    fn build_from_entries_reproduces_manual_construction() {
        // The factored builder must be bit-identical to the hand-wired
        // pipeline — that equivalence is what makes an N=1 "shard" the
        // unsharded engine.
        let entries: Vec<LogEntry> = build_engine(false).log().entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        let rebuilt = PqsDa::build_from_entries(&entries, &opts);
        let manual = build_engine(false);
        let sun = manual.log().find_query("sun").unwrap();
        for k in [1usize, 3, 5] {
            assert_eq!(
                manual.suggest(&SuggestRequest::simple(sun, k)),
                rebuilt.suggest(&SuggestRequest::simple(sun, k)),
                "k={k}"
            );
        }
        assert_eq!(manual.multi().digest(), rebuilt.multi().digest());
    }

    #[test]
    fn build_from_entries_handles_empty_partition() {
        let engine = PqsDa::build_from_entries(&[], &EngineBuildOptions::default());
        assert_eq!(engine.log().num_queries(), 0);
        assert!(engine
            .suggest(&SuggestRequest::simple(QueryId(0), 5))
            .is_empty());
    }

    #[test]
    fn out_of_range_query_is_empty() {
        let engine = build_engine(false);
        let out = engine.suggest(&SuggestRequest::simple(QueryId(9999), 3));
        assert!(out.is_empty());
    }

    #[test]
    fn apply_delta_matches_cold_rebuild_bit_for_bit() {
        let entries: Vec<LogEntry> = build_engine(false).log().entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        for cut in [entries.len() / 3, entries.len() / 2, entries.len() - 1] {
            let base = PqsDa::build_from_entries(&entries[..cut], &opts);
            // Warm the base cache so carry-over/invalidation is exercised.
            for q in 0..base.log().num_queries() {
                base.suggest(&SuggestRequest::simple(QueryId::from_index(q), 3));
            }
            let (warm, report) = base
                .apply_delta(&entries[cut..], &opts)
                .expect("chronological tail must apply as a delta");
            let cold = PqsDa::build_from_entries(&entries, &opts);
            assert_eq!(report.new_records, entries.len() - cut);
            assert_eq!(warm.multi().digest(), cold.multi().digest(), "cut={cut}");
            for q in 0..cold.log().num_queries() {
                for k in [1usize, 3, 5] {
                    let req = SuggestRequest::simple(QueryId::from_index(q), k);
                    assert_eq!(warm.suggest(&req), cold.suggest(&req), "q={q} k={k}");
                    // Ask twice: the second answer is served through the
                    // (partially carried-over) memo and must not differ.
                    assert_eq!(warm.suggest(&req), cold.suggest(&req));
                }
            }
        }
    }

    /// Replies as raw bits, for exact comparison.
    fn reply_bits(engine: &PqsDa, req: &SuggestRequest) -> Vec<(QueryId, u64)> {
        engine
            .suggest_scored(req)
            .into_iter()
            .map(|(q, s)| (q, s.to_bits()))
            .collect()
    }

    #[test]
    fn request_order_across_k_does_not_change_replies() {
        // The walk is built on the first k ≥ 2 request of a memo entry:
        // an entry first served at k = 1 must answer k = 10 exactly as
        // one first served at k = 10, and the other way round.
        let a = build_engine(false);
        let b = build_engine(false);
        for q in 0..a.log().num_queries() {
            let q = QueryId::from_index(q);
            let k1 = SuggestRequest::simple(q, 1);
            let k10 = SuggestRequest::simple(q, 10);
            let a1 = reply_bits(&a, &k1);
            let a10 = reply_bits(&a, &k10);
            let b10 = reply_bits(&b, &k10);
            let b1 = reply_bits(&b, &k1);
            assert_eq!(a1, b1, "k=1 q={q:?}");
            assert_eq!(a10, b10, "k=10 q={q:?}");
        }
    }

    /// The two-facet log plus a second topic island, which keeps its
    /// entries out of a final-entry delta's invalidation scope, so some are
    /// carried over.
    fn two_island_entries() -> Vec<LogEntry> {
        let mut entries = vec![
            LogEntry::new(UserId(3), "weather paris", Some("meteo.fr"), 10),
            LogEntry::new(UserId(3), "weather lyon", Some("meteo.fr"), 40),
            LogEntry::new(UserId(3), "rain radar", Some("radar.fr"), 70),
        ];
        entries.extend(build_engine(false).log().entries());
        entries
    }

    #[test]
    fn apply_delta_carries_k1_warmed_entries_exactly() {
        // Entries warmed at k = 1 only reach the new engine without a
        // walk; their first k = 10 request builds it there and must match
        // a cold rebuild.
        let entries = two_island_entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        let cut = entries.len() - 1;
        let base = PqsDa::build_from_entries(&entries[..cut], &opts);
        for q in 0..base.log().num_queries() {
            base.suggest(&SuggestRequest::simple(QueryId::from_index(q), 1));
        }
        let (warm, report) = base.apply_delta(&entries[cut..], &opts).unwrap();
        assert!(report.cache_retained > 0, "{report:?}");
        let cold = PqsDa::build_from_entries(&entries, &opts);
        for q in 0..cold.log().num_queries() {
            let req = SuggestRequest::simple(QueryId::from_index(q), 10);
            assert_eq!(reply_bits(&warm, &req), reply_bits(&cold, &req), "q={q}");
        }
    }

    #[test]
    fn carried_entries_do_not_keep_the_old_gram_matrices() {
        // Entries carried across a scoped delta must not pin the previous
        // generation's Gram matrices once the old engine is gone.
        let entries = two_island_entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        let cut = entries.len() - 1;
        let base = PqsDa::build_from_entries(&entries[..cut], &opts);
        for q in 0..base.log().num_queries() {
            base.suggest(&SuggestRequest::simple(QueryId::from_index(q), 3));
        }
        let old_grams: Vec<_> = base
            .multi()
            .iter()
            .map(|b| std::sync::Arc::downgrade(b.gram()))
            .collect();
        let (warm, report) = base.apply_delta(&entries[cut..], &opts).unwrap();
        assert!(report.cache_retained > 0, "{report:?}");
        drop(base);
        for g in &old_grams {
            assert_eq!(g.strong_count(), 0, "an old Gram matrix is still resident");
        }
        // The carried entries still serve, and the grown engine's first
        // miss builds its own Gram matrices.
        let cold = PqsDa::build_from_entries(&entries, &opts);
        for q in 0..cold.log().num_queries() {
            let req = SuggestRequest::simple(QueryId::from_index(q), 3);
            assert_eq!(reply_bits(&warm, &req), reply_bits(&cold, &req), "q={q}");
        }
    }

    #[test]
    fn apply_delta_serves_carried_selections_exactly() {
        // Selections resident before the delta travel inside their carried
        // entries; served from there, they must match a cold rebuild
        // answering each request alone.
        let entries = two_island_entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        let cut = entries.len() - 1;
        let base = PqsDa::build_from_entries(&entries[..cut], &opts);
        let n = base.log().num_queries();
        let reqs: Vec<SuggestRequest> = (0..n)
            .flat_map(|q| {
                let c = QueryId::from_index((q + 1) % n);
                let q = QueryId::from_index(q);
                [
                    SuggestRequest::simple(q, 1),
                    SuggestRequest::simple(q, 10),
                    SuggestRequest::simple(q, 10).with_context(vec![c], vec![700], 1000),
                ]
            })
            .collect();
        for req in &reqs {
            base.suggest(req);
        }
        let (warm, report) = base.apply_delta(&entries[cut..], &opts).unwrap();
        assert!(report.cache_retained > 0, "{report:?}");
        for req in &reqs {
            let cold = PqsDa::build_from_entries(&entries, &opts);
            assert_eq!(reply_bits(&warm, req), reply_bits(&cold, req), "{req:?}");
        }
        assert!(warm.cache_stats().selection_hits > 0, "nothing was carried");
    }

    #[test]
    fn concurrent_requests_on_one_entry_stay_exact_and_bounded() {
        // Nine (k, age) keys on one seed set, more than an entry's slots,
        // served from four threads in different orders: slots are replaced
        // under contention, yet every reply equals a fresh engine's and
        // the entry never holds more than SELECTION_SLOTS selections.
        let engine = build_engine(false);
        let sun = engine.log().find_query("sun").unwrap();
        let java = engine.log().find_query("sun java").unwrap();
        let reqs: Vec<SuggestRequest> = [2usize, 5, 10]
            .into_iter()
            .flat_map(|k| {
                [30u64, 60, 90].map(|age| {
                    SuggestRequest::simple(sun, k).with_context(vec![java], vec![1000 - age], 1000)
                })
            })
            .collect();
        let want: Vec<_> = reqs
            .iter()
            .map(|r| reply_bits(&build_engine(false), r))
            .collect();
        engine.suggest(&reqs[0]);
        let resident = engine.cache.entries();
        assert_eq!(resident.len(), 1);
        let entry = &resident[0].1;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (engine, reqs, want, start) = (&engine, &reqs, &want, &start);
                scope.spawn(move || {
                    start.wait();
                    let n = reqs.len();
                    for round in 0..20 {
                        for i in 0..n {
                            let i = (if t % 2 == 0 { i } else { n - 1 - i } + round + t) % n;
                            assert_eq!(reply_bits(engine, &reqs[i]), want[i], "thread {t}");
                            assert!(entry.selections.lock().len() <= SELECTION_SLOTS);
                        }
                    }
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(
            stats.selection_hits + stats.selection_misses,
            1 + 4 * 20 * 9
        );
        assert!(
            stats.selection_hits > 0 && stats.selection_misses > 9,
            "{stats:?}"
        );
    }

    #[test]
    fn apply_delta_warm_starts_the_personalizer() {
        let entries: Vec<LogEntry> = build_engine(true).log().entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            personalize: Some(ProfileTrainOptions {
                num_topics: 2,
                iterations: 30,
                seed: 13,
                hyper_every: 0,
                hyper_iterations: 0,
                threads: 1,
            }),
            ..EngineBuildOptions::default()
        };
        let cut = 21; // three complete rounds of the 7-entry pattern
        let base = PqsDa::build_from_entries(&entries[..cut], &opts);
        let (warm, report) = base.apply_delta(&entries[cut..], &opts).unwrap();
        assert!(report.personalizer_warm, "converged model must warm-start");
        let cold = PqsDa::build_from_entries(&entries, &opts);
        let sun = cold.log().find_query("sun").unwrap();
        // Diversification stays bit-identical; personalization reranks the
        // same candidate set (Borda permutes, never drops or adds).
        for k in [2usize, 4] {
            let req = SuggestRequest::simple(sun, k);
            assert_eq!(warm.diversify(&req), cold.diversify(&req));
            for user in [UserId(0), UserId(1)] {
                let mut w = warm.suggest(&req.clone().for_user(user));
                let mut c = cold.suggest(&req.clone().for_user(user));
                w.sort_unstable();
                c.sort_unstable();
                assert_eq!(w, c, "user {user:?} candidate sets must match");
            }
        }
        // The warm personalizer still separates the two user bases.
        let for_java = warm.suggest(&SuggestRequest::simple(sun, 4).for_user(UserId(0)));
        let top = warm.log().query_text(for_java[0]);
        assert!(top.contains("java"), "java user got {top:?}");
    }

    #[test]
    fn apply_delta_rejects_out_of_order_entries() {
        let entries: Vec<LogEntry> = build_engine(false).log().entries();
        let opts = EngineBuildOptions {
            scheme: WeightingScheme::CfIqf,
            ..EngineBuildOptions::default()
        };
        let base = PqsDa::build_from_entries(&entries, &opts);
        let stale = vec![LogEntry::new(UserId(0), "ancient query", None, 0)];
        assert!(base.apply_delta(&stale, &opts).is_none());
    }
}
