//! The multi-bipartite query-log representation (paper §III, Fig. 2).
//!
//! Bundles the query–URL, query–session and query–term bipartites over a
//! shared query index, in either raw or `cfiqf`-weighted form, and exposes
//! the per-bipartite structures the diversification component consumes.

use crate::bipartite::{Bipartite, EntityKind};
use crate::weighting::{apply_scheme, WeightingScheme};
use pqsda_linalg::csr::CsrMatrix;
use pqsda_querylog::{QueryLog, Session};

/// The three bipartites of Fig. 2 over one query vocabulary.
///
/// Alongside the (scheme-weighted) bipartites, [`MultiBipartite::build`]
/// retains the **raw co-occurrence counts** `c^U`, `c^S`, `c^T` (Eq. 4–6).
/// Raw counts are not recoverable from `cfiqf` weights (an entity attached
/// to every query has `iqf = ln 1 = 0`, zeroing its whole column), yet they
/// are what a log delta increments — so they are the substrate of
/// [`MultiBipartite::apply_delta`](crate::incremental).
#[derive(Clone, Debug)]
pub struct MultiBipartite {
    url: Bipartite,
    session: Bipartite,
    term: Bipartite,
    scheme: WeightingScheme,
    /// Raw `{U, S, T}` count matrices; `None` for hand-assembled
    /// representations ([`MultiBipartite::from_parts`]), which then cannot
    /// take incremental deltas.
    raw: Option<Box<[CsrMatrix; 3]>>,
}

impl MultiBipartite {
    /// Builds the representation from a sessionized log.
    ///
    /// # Panics
    /// Panics if records lack session assignments.
    pub fn build(log: &QueryLog, sessions: &[Session], scheme: WeightingScheme) -> Self {
        let raw_url = Bipartite::query_url(log);
        let raw_session = Bipartite::query_session(log, sessions);
        let raw_term = Bipartite::query_term(log);
        let url = apply_scheme(&raw_url, scheme, log);
        let session = apply_scheme(&raw_session, scheme, log);
        let term = apply_scheme(&raw_term, scheme, log);
        MultiBipartite {
            url,
            session,
            term,
            scheme,
            raw: Some(Box::new([
                raw_url.into_matrix(),
                raw_session.into_matrix(),
                raw_term.into_matrix(),
            ])),
        }
    }

    /// Wraps three prebuilt bipartites (must share the query count).
    /// The result carries no raw counts and therefore always falls back to
    /// cold rebuilds under deltas.
    pub fn from_parts(
        url: Bipartite,
        session: Bipartite,
        term: Bipartite,
        scheme: WeightingScheme,
    ) -> Self {
        assert_eq!(url.num_queries(), session.num_queries());
        assert_eq!(url.num_queries(), term.num_queries());
        assert_eq!(url.kind(), EntityKind::Url);
        assert_eq!(session.kind(), EntityKind::Session);
        assert_eq!(term.kind(), EntityKind::Term);
        MultiBipartite {
            url,
            session,
            term,
            scheme,
            raw: None,
        }
    }

    /// Assembles from weighted bipartites plus their raw count matrices —
    /// the incremental update path, and the snapshot-store load path
    /// (which is why it is public: a loaded shard must keep its raw
    /// counts, or every post-load delta would cold-rebuild).
    ///
    /// # Panics
    /// Panics if the bipartites disagree on kinds/query count or a raw
    /// matrix's shape differs from its weighted counterpart.
    pub fn from_weighted_and_raw(
        url: Bipartite,
        session: Bipartite,
        term: Bipartite,
        scheme: WeightingScheme,
        raw: Box<[CsrMatrix; 3]>,
    ) -> Self {
        assert_eq!(url.num_queries(), session.num_queries());
        assert_eq!(url.num_queries(), term.num_queries());
        assert_eq!(url.kind(), EntityKind::Url);
        assert_eq!(session.kind(), EntityKind::Session);
        assert_eq!(term.kind(), EntityKind::Term);
        for (b, r) in [&url, &session, &term].into_iter().zip(raw.iter()) {
            assert_eq!(b.matrix().rows(), r.rows(), "raw count shape mismatch");
            assert_eq!(b.matrix().cols(), r.cols(), "raw count shape mismatch");
        }
        MultiBipartite {
            url,
            session,
            term,
            scheme,
            raw: Some(raw),
        }
    }

    /// The raw `{U, S, T}` count matrix of a kind, when retained.
    pub fn raw_counts(&self, kind: EntityKind) -> Option<&CsrMatrix> {
        self.raw.as_ref().map(|r| match kind {
            EntityKind::Url => &r[0],
            EntityKind::Session => &r[1],
            EntityKind::Term => &r[2],
        })
    }

    /// The bipartite for a kind.
    pub fn get(&self, kind: EntityKind) -> &Bipartite {
        match kind {
            EntityKind::Url => &self.url,
            EntityKind::Session => &self.session,
            EntityKind::Term => &self.term,
        }
    }

    /// Iterates the three bipartites in `{U, S, T}` order.
    pub fn iter(&self) -> impl Iterator<Item = &Bipartite> {
        [&self.url, &self.session, &self.term].into_iter()
    }

    /// Shared query count.
    pub fn num_queries(&self) -> usize {
        self.url.num_queries()
    }

    /// The weighting this representation was built with.
    pub fn scheme(&self) -> WeightingScheme {
        self.scheme
    }

    /// Total edges across the three bipartites — the coverage advantage
    /// over the click graph alone.
    pub fn total_edges(&self) -> usize {
        self.iter().map(Bipartite::num_edges).sum()
    }

    /// A stable structural digest of the representation: every bipartite's
    /// shape and every edge's `(row, column, weight-bits)` folded through
    /// FNV-1a, in deterministic `{U, S, T}`/row order.
    ///
    /// The serving layer stamps each shard snapshot with this value so a
    /// reader can prove the graph it was answered from is exactly one
    /// registered generation (torn-read detection across snapshot swaps).
    /// Two representations digest equal iff they were built from the same
    /// log partition with the same scheme — weight bits are exact, so even
    /// a one-ULP kernel change shows up.
    pub fn digest(&self) -> u64 {
        use pqsda_querylog::hash::{FNV_OFFSET, FNV_PRIME};
        // One xor-multiply per u64 field (not per byte): the digest gate
        // runs on every snapshot publish *and* every cold-start load, so
        // it is sized at three multiplies per edge. Injective per field,
        // so any single-field change flips the digest.
        let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
        let mut h = FNV_OFFSET;
        for b in self.iter() {
            let m = b.matrix();
            h = fold(h, m.rows() as u64);
            h = fold(h, m.cols() as u64);
            h = fold(h, m.nnz() as u64);
            for r in 0..m.rows() {
                let (cols, vals) = m.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    h = fold(h, r as u64);
                    h = fold(h, u64::from(c));
                    h = fold(h, v.to_bits());
                }
            }
        }
        h
    }

    /// The set of queries reachable from `q` through any single bipartite
    /// in one query→entity→query hop (the paper's Fig. 2 walk-through).
    pub fn one_hop_neighbors(&self, q: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_queries()];
        let mut out = Vec::new();
        for b in self.iter() {
            let (entities, _) = b.matrix().row(q);
            for &e in entities {
                let (queries, _) = b.transposed().row(e as usize);
                for &other in queries {
                    let other = other as usize;
                    if other != q && !seen[other] {
                        seen[other] = true;
                        out.push(other);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, QueryLog, UserId};

    fn table_one() -> (QueryLog, Vec<Session>) {
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
        (log, sessions)
    }

    #[test]
    fn multi_bipartite_reaches_more_than_click_graph() {
        // The paper's §III walk-through: via the click graph alone, "sun"
        // reaches only "java"; adding session and term bipartites reaches
        // "sun java", "jvm download", "solar cell" and "sun oracle" too.
        let (log, sessions) = table_one();
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        let sun = log.find_query("sun").unwrap().index();

        // Click-graph only.
        let click_only = {
            let b = multi.get(EntityKind::Url);
            let mut out = std::collections::HashSet::new();
            let (urls, _) = b.matrix().row(sun);
            for &u in urls {
                let (qs, _) = b.transposed().row(u as usize);
                for &q in qs {
                    if q as usize != sun {
                        out.insert(q as usize);
                    }
                }
            }
            out
        };
        assert_eq!(click_only.len(), 1, "click graph reaches only 'java'");

        let all = multi.one_hop_neighbors(sun);
        assert_eq!(all.len(), 5, "multi-bipartite reaches every other query");
    }

    #[test]
    fn bipartite_kinds_are_wired_correctly() {
        let (log, sessions) = table_one();
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        assert_eq!(multi.get(EntityKind::Url).kind(), EntityKind::Url);
        assert_eq!(multi.get(EntityKind::Session).kind(), EntityKind::Session);
        assert_eq!(multi.get(EntityKind::Term).kind(), EntityKind::Term);
        assert_eq!(multi.num_queries(), log.num_queries());
        assert_eq!(multi.scheme(), WeightingScheme::CfIqf);
    }

    #[test]
    fn total_edges_sums_three_bipartites() {
        let (log, sessions) = table_one();
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        let sum = EntityKind::ALL
            .iter()
            .map(|&k| multi.get(k).num_edges())
            .sum::<usize>();
        assert_eq!(multi.total_edges(), sum);
        assert!(multi.total_edges() > multi.get(EntityKind::Url).num_edges());
    }

    #[test]
    fn weighted_and_raw_share_structure() {
        let (log, sessions) = table_one();
        let raw = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        let weighted = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        for kind in EntityKind::ALL {
            assert_eq!(
                raw.get(kind).num_edges(),
                weighted.get(kind).num_edges(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn digest_separates_structure_and_is_stable() {
        let (log, sessions) = table_one();
        let raw = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        let weighted = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        // Deterministic: same build, same digest.
        assert_eq!(raw.digest(), raw.digest());
        assert_eq!(
            raw.digest(),
            MultiBipartite::build(&log, &sessions, WeightingScheme::Raw).digest()
        );
        // Weight-sensitive: raw vs cfiqf share structure but not weights.
        assert_ne!(raw.digest(), weighted.digest());
    }

    #[test]
    fn one_hop_neighbors_excludes_self_and_sorts() {
        let (log, sessions) = table_one();
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::Raw);
        for q in 0..multi.num_queries() {
            let n = multi.one_hop_neighbors(q);
            assert!(!n.contains(&q));
            assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn gram_matrices_are_bitwise_symmetric_with_stored_zeros() {
        // Every query clicks portal.com and every record shares one user
        // session, so that URL and that session reach all queries: their
        // iqf is ln(1) = 0 and cfiqf stores explicit zeros in their
        // columns. The Gram scatter in Eq. 15 assembly reads row gⱼ for
        // entry (gᵢ, gⱼ), so G must hold identical bits on both sides of
        // the diagonal, zero products included.
        let mut entries = Vec::new();
        for (i, &q) in ["sun", "sun java", "java", "solar cell", "sun oracle"]
            .iter()
            .enumerate()
        {
            let t = 100 + 10 * i as u64;
            entries.push(LogEntry::new(UserId(0), q, Some("portal.com"), t));
            entries.push(LogEntry::new(
                UserId(0),
                q,
                Some(&format!("{q}.org")),
                t + 1,
            ));
        }
        entries.push(LogEntry::new(UserId(1), "sun", Some("www.java.com"), 50));
        entries.push(LogEntry::new(UserId(1), "java", Some("www.java.com"), 60));
        let mut log = QueryLog::from_entries(&entries);
        let sessions = segment_sessions(&mut log, &SessionConfig::default());
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        let url = multi.get(EntityKind::Url).matrix();
        assert!(
            url.iter().any(|(_, _, v)| v == 0.0),
            "the iqf = 0 column must be stored as explicit zeros"
        );
        for b in multi.iter() {
            let g = b.gram();
            assert_eq!((g.rows(), g.cols()), (b.num_queries(), b.num_queries()));
            let t = g.transpose();
            assert_eq!(g.parts().0, t.parts().0, "{:?}: structure", b.kind());
            assert_eq!(g.parts().1, t.parts().1, "{:?}: structure", b.kind());
            let bits = |m: &CsrMatrix| m.parts().2.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(&t), "{:?}: values", b.kind());
            assert!(std::sync::Arc::ptr_eq(g, b.gram()), "built once");
        }
    }
}
