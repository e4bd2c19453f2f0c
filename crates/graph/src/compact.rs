//! The compact multi-bipartite representation (paper §IV-A).
//!
//! Query suggestion over the full log would solve Eq. 15 over millions of
//! variables. The paper instead grows a *compact* representation: start
//! from the input query and its search context, and "iteratively expand
//! this representation by Markov random walk via the full multi-bipartite
//! representation, until the total number of queries in the compact one
//! reaches a desired size Q".
//!
//! Our expansion follows the walk's probability mass deterministically:
//! each round propagates the current member set one query→entity→query hop
//! through all three bipartites (accumulating two-step walk probability)
//! and admits the highest-mass new queries first, until `max_queries` is
//! reached or the frontier is exhausted. Determinism keeps every experiment
//! reproducible without changing what the walk measures.

use crate::bipartite::EntityKind;
use crate::multi::MultiBipartite;
use pqsda_linalg::csr::CsrMatrix;
use pqsda_querylog::QueryId;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Controls for [`CompactMulti::expand`].
#[derive(Clone, Copy, Debug)]
pub struct CompactConfig {
    /// Target number of queries `Q` in the compact representation.
    pub max_queries: usize,
    /// Maximum expansion rounds (each round is one walk hop).
    pub max_rounds: usize,
}

impl Default for CompactConfig {
    fn default() -> Self {
        CompactConfig {
            max_queries: 512,
            max_rounds: 4,
        }
    }
}

/// A sub-representation over a selected query set. Queries are re-indexed
/// locally (`0..len`); entity columns keep their global ids, and edges are
/// restricted to the member rows.
///
/// Clones share storage, so the engine's memo entry and the Algorithm 1
/// backend that builds its walk from the representation hold one copy.
#[derive(Clone, Debug)]
pub struct CompactMulti {
    shared: Arc<Members>,
}

#[derive(Debug)]
struct Members {
    /// Local index → global query id.
    queries: Vec<QueryId>,
    /// Global query id → local index.
    index: HashMap<QueryId, usize>,
    /// Member-row slices of the three bipartites (local rows, global
    /// entity columns), in `{U, S, T}` order.
    matrices: [CsrMatrix; 3],
    /// The full representation's Gram matrices `W Wᵀ` (global rows and
    /// columns), owned by the bipartites that built them, in `{U, S, T}`
    /// order. Weak, so a memo entry that outlives its representation (one
    /// carried across `apply_delta`) does not keep them resident.
    grams: [Weak<CsrMatrix>; 3],
}

impl CompactMulti {
    /// Grows the compact representation from `seeds` (the input query plus
    /// its search context) through `full`.
    ///
    /// # Panics
    /// Panics if `seeds` is empty or contains an out-of-range query.
    pub fn expand(full: &MultiBipartite, seeds: &[QueryId], config: &CompactConfig) -> Self {
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

        // One round's propagated mass, dense over all queries, with the
        // queries it reached listed in `touched` (a reached query counts
        // even when its mass sums to exactly 0.0). Both are reset after
        // every round, so the call allocates them once.
        let mut mass = vec![0.0f64; n];
        let mut reached = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        // Each entity's total query weight `Σ qvals`, per bipartite,
        // computed on first use within this call (0.0 = not yet computed;
        // a row whose weights really sum to 0.0 is just recomputed).
        let mut qsums: [Vec<f64>; 3] = Default::default();

        for _ in 0..config.max_rounds {
            if members.len() >= config.max_queries || frontier.is_empty() {
                break;
            }
            // Propagate one two-step hop through each bipartite; average
            // the three bipartites (the paper uses equal weights absent
            // prior knowledge, §IV-C). Every query receives its additions
            // in this fixed loop order, so its mass has the same bits
            // however the accumulator is stored.
            for (b, qsum_of) in full.iter().zip(qsums.iter_mut()) {
                let m = b.matrix();
                let t = b.transposed();
                if qsum_of.is_empty() {
                    *qsum_of = vec![0.0; t.rows()];
                }
                for &(q, w) in &frontier {
                    let (ents, evals) = m.row(q);
                    let esum: f64 = evals.iter().sum();
                    if esum <= 0.0 {
                        continue;
                    }
                    for (&e, &ev) in ents.iter().zip(evals) {
                        let (qs, qvals) = t.row(e as usize);
                        let mut qsum = qsum_of[e as usize];
                        if qsum == 0.0 {
                            qsum = qvals.iter().sum();
                            qsum_of[e as usize] = qsum;
                        }
                        if qsum <= 0.0 {
                            continue;
                        }
                        let p_e = ev / esum / 3.0;
                        for (&q2, &qv) in qs.iter().zip(qvals) {
                            let q2 = q2 as usize;
                            if !reached[q2] {
                                reached[q2] = true;
                                touched.push(q2);
                            }
                            mass[q2] += w * p_e * qv / qsum;
                        }
                    }
                }
            }
            touched.sort_unstable();
            // Admit the heaviest new queries.
            let mut new: Vec<(usize, f64)> = touched
                .iter()
                .filter(|&&q| !in_set[q])
                .map(|&q| (q, mass[q]))
                .collect();
            new.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            let room = config.max_queries - members.len();
            for &(q, _) in new.iter().take(room) {
                in_set[q] = true;
                members.push(QueryId::from_index(q));
            }
            // Next frontier: full propagated mass restricted to members,
            // in query-index order — the float accumulation order of the
            // next round.
            frontier = touched
                .iter()
                .filter(|&&q| in_set[q] && mass[q] > 1e-12)
                .map(|&q| (q, mass[q]))
                .collect();
            for &q in &touched {
                mass[q] = 0.0;
                reached[q] = false;
            }
            touched.clear();
        }

        Self::project(full, members)
    }

    /// Restricts `full` to an explicit member list (used by tests and by
    /// the ablation that disables expansion). Builds `full`'s Gram
    /// matrices if this is their first use.
    pub fn project(full: &MultiBipartite, members: Vec<QueryId>) -> Self {
        let index: HashMap<QueryId, usize> =
            members.iter().enumerate().map(|(i, &q)| (q, i)).collect();
        assert_eq!(index.len(), members.len(), "duplicate members");
        let rows: Vec<usize> = members.iter().map(|q| q.index()).collect();
        let matrices = [EntityKind::Url, EntityKind::Session, EntityKind::Term]
            .map(|kind| full.get(kind).matrix().select_rows(&rows));
        let grams = EntityKind::ALL.map(|kind| Arc::downgrade(full.get(kind).gram()));
        CompactMulti {
            shared: Arc::new(Members {
                queries: members,
                index,
                matrices,
                grams,
            }),
        }
    }

    /// Number of queries in the compact set.
    pub fn len(&self) -> usize {
        self.shared.queries.len()
    }

    /// True when the compact set is empty (never produced by `expand`).
    pub fn is_empty(&self) -> bool {
        self.shared.queries.is_empty()
    }

    /// Local → global mapping.
    pub fn global(&self, local: usize) -> QueryId {
        self.shared.queries[local]
    }

    /// Global → local mapping.
    pub fn local(&self, q: QueryId) -> Option<usize> {
        self.shared.index.get(&q).copied()
    }

    /// All member queries in local order.
    pub fn queries(&self) -> &[QueryId] {
        &self.shared.queries
    }

    /// The member-row matrix of one bipartite (local rows × global
    /// entity columns).
    pub fn matrix(&self, kind: EntityKind) -> &CsrMatrix {
        match kind {
            EntityKind::Url => &self.shared.matrices[0],
            EntityKind::Session => &self.shared.matrices[1],
            EntityKind::Term => &self.shared.matrices[2],
        }
    }

    /// The full representation's Gram matrix `W Wᵀ` of one bipartite
    /// (global query rows and columns): entry `(global(i), global(j))` is
    /// bit-equal to entry `(i, j)` of `matrix(kind) · matrix(kind)ᵀ`.
    ///
    /// # Panics
    /// Panics if the full representation this one was grown from has been
    /// dropped: the compact representation does not keep it alive.
    pub fn gram(&self, kind: EntityKind) -> Arc<CsrMatrix> {
        self.shared.grams[kind as usize]
            .upgrade()
            .expect("CompactMulti::gram: the full representation has been dropped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighting::WeightingScheme;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::synth::{generate, SynthConfig};
    use pqsda_querylog::{LogEntry, QueryLog, UserId};

    fn table_one_multi() -> (QueryLog, MultiBipartite) {
        let entries = vec![
            LogEntry::new(UserId(0), "sun", Some("www.java.com"), 100),
            LogEntry::new(UserId(0), "sun java", Some("java.sun.com"), 120),
            LogEntry::new(UserId(0), "jvm download", None, 200),
            LogEntry::new(UserId(1), "sun", Some("www.suncellular.com"), 300),
            LogEntry::new(UserId(1), "solar cell", Some("en.wikipedia.org"), 400),
            LogEntry::new(UserId(2), "sun oracle", Some("www.oracle.com"), 500),
            LogEntry::new(UserId(2), "java", Some("www.java.com"), 560),
        ];
        let mut log = QueryLog::from_entries(&entries);
        let sessions = segment_sessions(&mut log, &SessionConfig::default());
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        (log, multi)
    }

    #[test]
    fn expansion_contains_seeds_first() {
        let (log, multi) = table_one_multi();
        let sun = log.find_query("sun").unwrap();
        let c = CompactMulti::expand(&multi, &[sun], &CompactConfig::default());
        assert_eq!(c.global(0), sun);
        assert_eq!(c.local(sun), Some(0));
        assert!(c.len() >= 2, "expansion must pull in neighbors");
    }

    #[test]
    fn expansion_reaches_all_table_one_queries() {
        let (log, multi) = table_one_multi();
        let sun = log.find_query("sun").unwrap();
        let c = CompactMulti::expand(&multi, &[sun], &CompactConfig::default());
        // Table I is tiny and fully connected through sessions/terms.
        assert_eq!(c.len(), log.num_queries());
    }

    #[test]
    fn max_queries_is_respected() {
        let (log, multi) = table_one_multi();
        let sun = log.find_query("sun").unwrap();
        let cfg = CompactConfig {
            max_queries: 3,
            max_rounds: 8,
        };
        let c = CompactMulti::expand(&multi, &[sun], &cfg);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn projection_preserves_rows() {
        let (log, multi) = table_one_multi();
        let sun = log.find_query("sun").unwrap();
        let java = log.find_query("java").unwrap();
        let c = CompactMulti::project(&multi, vec![sun, java]);
        assert_eq!(c.len(), 2);
        for kind in EntityKind::ALL {
            let local = c.matrix(kind);
            let global = multi.get(kind).matrix();
            let (lc, lv) = local.row(0);
            let (gc, gv) = global.row(sun.index());
            assert_eq!(lc, gc, "{kind:?}");
            assert_eq!(lv, gv, "{kind:?}");
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let synth = generate(&SynthConfig::tiny(11));
        let multi =
            MultiBipartite::build(&synth.log, &synth.truth.sessions, WeightingScheme::CfIqf);
        let seed = synth.log.records()[0].query;
        let cfg = CompactConfig {
            max_queries: 40,
            max_rounds: 3,
        };
        let a = CompactMulti::expand(&multi, &[seed], &cfg);
        let b = CompactMulti::expand(&multi, &[seed], &cfg);
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn expansion_prefers_strongly_connected_queries() {
        let synth = generate(&SynthConfig::tiny(13));
        let multi = MultiBipartite::build(&synth.log, &synth.truth.sessions, WeightingScheme::Raw);
        let seed = synth.log.records()[0].query;
        let cfg = CompactConfig {
            max_queries: 15,
            max_rounds: 2,
        };
        let c = CompactMulti::expand(&multi, &[seed], &cfg);
        assert!(c.len() <= 15);
        // Every admitted query (beyond the seed) is reachable within two
        // hops of the seed in the multi-bipartite.
        let one_hop = multi.one_hop_neighbors(seed.index());
        let mut two_hop: std::collections::HashSet<usize> = one_hop.iter().copied().collect();
        for &q in &one_hop {
            two_hop.extend(multi.one_hop_neighbors(q));
        }
        for &q in c.queries().iter().skip(1) {
            assert!(two_hop.contains(&q.index()), "query {q:?} unreachable");
        }
    }

    #[test]
    #[should_panic(expected = "seed queries")]
    fn empty_seeds_rejected() {
        let (_, multi) = table_one_multi();
        CompactMulti::expand(&multi, &[], &CompactConfig::default());
    }

    #[test]
    fn duplicate_seeds_are_merged() {
        let (log, multi) = table_one_multi();
        let sun = log.find_query("sun").unwrap();
        let cfg = CompactConfig {
            max_queries: 2,
            max_rounds: 1,
        };
        let c = CompactMulti::expand(&multi, &[sun, sun], &cfg);
        assert_eq!(c.local(sun), Some(0));
        assert_eq!(c.len(), 2);
    }
}
