//! Query–entity bipartite graphs.
//!
//! The paper models query relations through three bipartites (Fig. 2):
//! query–URL (the conventional click graph), query–session and query–term.
//! All three share one representation here: a sparse `queries × entities`
//! count matrix. The raw counts `c^U`, `c^S`, `c^T` of Eq. 4–6 are exactly
//! the stored values; [`crate::weighting`] turns them into `cfiqf` weights.

use pqsda_linalg::csr::{CooBuilder, CsrMatrix};
use pqsda_querylog::{QueryLog, Session};
use std::sync::{Arc, OnceLock};

/// Which entity side a bipartite connects queries to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// Clicked URLs — `X = U` in the paper.
    Url,
    /// Search sessions — `X = S`.
    Session,
    /// Query terms — `X = T`.
    Term,
}

impl EntityKind {
    /// All three kinds, in the paper's `{U, S, T}` order.
    pub const ALL: [EntityKind; 3] = [EntityKind::Url, EntityKind::Session, EntityKind::Term];
}

/// A `queries × entities` bipartite with non-negative edge weights
/// (raw co-occurrence counts on construction).
#[derive(Clone, Debug)]
pub struct Bipartite {
    kind: EntityKind,
    matrix: CsrMatrix,
    /// Entity → queries transpose, materialized on first use (expansion
    /// and two-step walks need both directions, but a freshly loaded
    /// snapshot does not — keeping it lazy takes the O(nnz) counting
    /// sort off the cold-start path). Deterministic, so *when* it is
    /// built never changes *what* it holds.
    transpose: OnceLock<CsrMatrix>,
    /// The query–query Gram matrix `W Wᵀ`, materialized on first use for
    /// the same reason (memo misses gather Eq. 15's similarities from it;
    /// a snapshot load or a delta does not need it up front).
    gram: OnceLock<Arc<CsrMatrix>>,
}

impl Bipartite {
    /// Wraps an explicit matrix (rows = queries, cols = entities).
    pub fn from_matrix(kind: EntityKind, matrix: CsrMatrix) -> Self {
        Bipartite {
            kind,
            matrix,
            transpose: OnceLock::new(),
            gram: OnceLock::new(),
        }
    }

    /// The query–URL bipartite (click graph): `c^U[q, u]` = number of log
    /// records where query `q` was submitted and URL `u` clicked.
    pub fn query_url(log: &QueryLog) -> Self {
        let mut b = CooBuilder::new(log.num_queries(), log.num_urls());
        for r in log.records() {
            if let Some(u) = r.click {
                b.push(r.query.index(), u.index(), 1.0);
            }
        }
        Self::from_matrix(EntityKind::Url, b.build())
    }

    /// The query–session bipartite: `c^S[q, s]` = number of records of
    /// query `q` inside session `s`.
    ///
    /// # Panics
    /// Panics if any record lacks a session assignment.
    pub fn query_session(log: &QueryLog, sessions: &[Session]) -> Self {
        let mut b = CooBuilder::new(log.num_queries(), sessions.len());
        for r in log.records() {
            let s = r
                .session
                .expect("query_session: run session segmentation first");
            b.push(r.query.index(), s.index(), 1.0);
        }
        Self::from_matrix(EntityKind::Session, b.build())
    }

    /// The query–term bipartite: `c^T[q, t]` = occurrences of term `t` in
    /// query `q`, multiplied by the query's log frequency (each submission
    /// re-expresses the terms, mirroring how the other two bipartites count
    /// per record).
    pub fn query_term(log: &QueryLog) -> Self {
        let freqs = log.query_frequencies();
        let mut b = CooBuilder::new(log.num_queries(), log.num_terms());
        for q in 0..log.num_queries() {
            let f = freqs[q] as f64;
            if f == 0.0 {
                continue;
            }
            for &t in log.query_terms(pqsda_querylog::QueryId::from_index(q)) {
                b.push(q, t.index(), f);
            }
        }
        Self::from_matrix(EntityKind::Term, b.build())
    }

    /// Which entity side this bipartite connects to.
    pub fn kind(&self) -> EntityKind {
        self.kind
    }

    /// The `queries × entities` weight matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The `entities × queries` transpose (built on first call).
    pub fn transposed(&self) -> &CsrMatrix {
        self.transpose.get_or_init(|| self.matrix.transpose())
    }

    /// The `queries × queries` Gram matrix `G = W Wᵀ` (built on first
    /// call). Entry `(a, b)` sums `W[a,e]·W[b,e]` over row `a`'s entities
    /// in ascending order, exactly as [`CsrMatrix::mul`] does for any row
    /// subset, so a product over member rows copied verbatim from `W`
    /// holds the same bits as `G` restricted to those members. Products
    /// commute, so `G` is bitwise symmetric.
    pub fn gram(&self) -> &Arc<CsrMatrix> {
        self.gram
            .get_or_init(|| Arc::new(self.matrix.mul(self.transposed())))
    }

    /// Number of query rows.
    pub fn num_queries(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of entity columns.
    pub fn num_entities(&self) -> usize {
        self.matrix.cols()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.matrix.nnz()
    }

    /// Number of *distinct* queries attached to each entity — the
    /// `n^X(e_j) = Σ_i 1_{int(q_i, e_j)}` of Eq. 1–3 (an indicator sum over
    /// queries, so multiplicity does not count).
    pub fn entity_query_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_entities()];
        for (_, e, v) in self.matrix.iter() {
            if v > 0.0 {
                deg[e] += 1;
            }
        }
        deg
    }

    /// Consumes the bipartite, yielding its weight matrix (the transpose
    /// is dropped — used when only the raw counts need to be kept around).
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    /// Replaces the weight matrix, keeping the transpose and Gram in sync.
    pub fn with_matrix(&self, matrix: CsrMatrix) -> Self {
        assert_eq!(matrix.rows(), self.matrix.rows(), "with_matrix: row count");
        assert_eq!(matrix.cols(), self.matrix.cols(), "with_matrix: col count");
        Self::from_matrix(self.kind, matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, UserId};

    /// The paper's Table I log.
    fn table_one_log() -> (QueryLog, Vec<Session>) {
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
    fn click_graph_matches_figure_2a() {
        let (log, _) = table_one_log();
        let b = Bipartite::query_url(&log);
        assert_eq!(b.kind(), EntityKind::Url);
        assert_eq!(b.num_queries(), 6);
        assert_eq!(b.num_entities(), 5);
        // "sun" clicked www.java.com and www.suncellular.com; "java" clicked
        // www.java.com — that shared URL is the only query-query connection,
        // exactly the paper's low-coverage complaint about click graphs.
        let sun = log.find_query("sun").unwrap();
        let java = log.find_query("java").unwrap();
        let m = b.matrix();
        let (sun_cols, _) = m.row(sun.index());
        let (java_cols, _) = m.row(java.index());
        let shared: Vec<_> = sun_cols.iter().filter(|c| java_cols.contains(c)).collect();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn session_bipartite_connects_session_mates() {
        let (log, sessions) = table_one_log();
        let b = Bipartite::query_session(&log, &sessions);
        assert_eq!(b.num_entities(), 3);
        // In Fig. 2(b), "sun" reaches "sun java" and "jvm download" via
        // session s1 and "solar cell" via session s2.
        let sun = log.find_query("sun").unwrap();
        let (sun_sessions, _) = b.matrix().row(sun.index());
        assert_eq!(sun_sessions.len(), 2, "sun appears in two sessions");
    }

    #[test]
    fn term_bipartite_counts_frequency_weighted_terms() {
        let (log, _) = table_one_log();
        let b = Bipartite::query_term(&log);
        let sun = log.find_query("sun").unwrap();
        let sun_java = log.find_query("sun java").unwrap();
        // "sun" submitted twice → its (sun, "sun") edge has weight 2.
        let term_sun = log.query_terms(sun)[0];
        assert_eq!(b.matrix().get(sun.index(), term_sun.index()), 2.0);
        // "sun java" submitted once → weight 1 on both terms.
        assert_eq!(b.matrix().get(sun_java.index(), term_sun.index()), 1.0);
    }

    #[test]
    fn entity_query_degrees_count_distinct_queries() {
        let (log, _) = table_one_log();
        let b = Bipartite::query_url(&log);
        let deg = b.entity_query_degrees();
        // www.java.com is clicked from "sun" and "java": degree 2.
        let javacom = (0..log.num_urls())
            .find(|&u| log.url_text(pqsda_querylog::UrlId::from_index(u)) == "www.java.com")
            .unwrap();
        assert_eq!(deg[javacom], 2);
        // Every other URL has degree 1.
        assert_eq!(deg.iter().sum::<u32>(), 6);
    }

    #[test]
    fn transpose_is_consistent() {
        let (log, _) = table_one_log();
        let b = Bipartite::query_url(&log);
        let t = b.transposed();
        for (q, u, v) in b.matrix().iter() {
            assert_eq!(t.get(u, q), v);
        }
        assert_eq!(t.rows(), b.num_entities());
        assert_eq!(t.cols(), b.num_queries());
    }

    #[test]
    #[should_panic(expected = "session segmentation")]
    fn session_bipartite_requires_sessions() {
        let entries = vec![LogEntry::new(UserId(0), "sun", None, 0)];
        let log = QueryLog::from_entries(&entries);
        Bipartite::query_session(&log, &[]);
    }

    #[test]
    fn with_matrix_preserves_shape_and_kind() {
        let (log, _) = table_one_log();
        let b = Bipartite::query_url(&log);
        let doubled = b.with_matrix(b.matrix().map_values(|v| 2.0 * v));
        assert_eq!(doubled.kind(), EntityKind::Url);
        assert_eq!(doubled.num_edges(), b.num_edges());
        assert_eq!(
            doubled.matrix().frobenius_norm(),
            2.0 * b.matrix().frobenius_norm()
        );
    }
}
