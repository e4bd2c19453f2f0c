//! The context-aware regularization framework (paper §IV-B).
//!
//! Given the compact multi-bipartite representation, the framework
//! estimates a relevance vector `F*` by balancing the *fitting constraint*
//! (stay close to the seed vector `F⁰`, Eq. 8) against one *smoothness
//! constraint per bipartite* (closely related queries get similar scores,
//! Eq. 9). The KKT conditions reduce to the sparse linear system of
//! Eq. 15:
//!
//! ```text
//! ((1 + Σ_X α^X) I − Σ_X α^X 𝓛^X) F* = F⁰ ,
//! 𝓛^X = D^{-1/2} (W^X W^Xᵀ) D^{-1/2}
//! ```
//!
//! (the paper's `D^{X 1/2}` is the usual symmetric normalization — written
//! with the inverse square root here, the only reading under which 𝓛 has
//! spectral radius ≤ 1 and the system is positive definite). The seed
//! entry of a context query decays with its age (Eq. 7):
//! `F⁰_{q'} = e^{λ (t_{q'} − t_q)}` with `t_{q'} ≤ t_q`.
//!
//! Query–query similarity `W^X W^Xᵀ` is a property of the whole click
//! graph, so it is not multiplied out per request: each bipartite keeps
//! its Gram matrix (built on the first memo miss that needs it), and
//! [`Regularizer::new`] gathers the members' block of it.

use pqsda_graph::bipartite::EntityKind;
use pqsda_graph::compact::CompactMulti;
use pqsda_linalg::csr::CsrMatrix;
use pqsda_linalg::solver::{ConjugateGradient, LinearSolver, SolverConfig};

/// Parameters of the regularization framework.
#[derive(Clone, Copy, Debug)]
pub struct RegularizationConfig {
    /// The Lagrange multipliers α^X in `{U, S, T}` order (the paper tunes
    /// them empirically and notes Eq. 15 is not very sensitive to them).
    pub alphas: [f64; 3],
    /// Decay rate λ of the context seed (Eq. 7); applied to the age in
    /// seconds, so the default halves a context query's weight in ≈5 min.
    pub lambda: f64,
    /// Linear-solver settings.
    pub solver: SolverConfig,
}

impl Default for RegularizationConfig {
    fn default() -> Self {
        RegularizationConfig {
            alphas: [0.6, 0.6, 0.6],
            lambda: 2.3e-3,
            solver: SolverConfig::default(),
        }
    }
}

/// The assembled system for one compact representation.
#[derive(Clone, Debug)]
pub struct Regularizer {
    coefficient: CsrMatrix,
    config: RegularizationConfig,
}

impl Regularizer {
    /// Assembles the Eq. 15 coefficient matrix over a compact
    /// representation.
    ///
    /// Each `S^X = W^X W^Xᵀ` is gathered from the full representation's
    /// Gram matrix rather than multiplied out (see [`member_gram`]), and
    /// every output row is then built in one pass: `1 + Σα` on the
    /// diagonal of a zeroed dense row, `−α^X·((S^X_ij·d^X_i)·d^X_j)` added
    /// for `X = U, S, T` in that order, and the touched columns emitted in
    /// ascending order with exact zeros dropped. That is the value the
    /// merge chain `((1+Σα) I) + (−α^U 𝓛^U) + (−α^S 𝓛^S) + (−α^T 𝓛^T)`
    /// computes cell by cell (`1.0·a = a`, and `0.0 + x = x` for every `x`
    /// that survives the drop), so the bits are those of the chain.
    ///
    /// # Panics
    /// Panics if the full representation `compact` was grown from has been
    /// dropped (see [`CompactMulti::gram`]).
    pub fn new(compact: &CompactMulti, config: RegularizationConfig) -> Self {
        let n = compact.len();
        let alpha_sum: f64 = config.alphas.iter().sum();
        let grams = EntityKind::ALL.map(|kind| compact.gram(kind));
        // Global query → local index; every non-member maps to the sink
        // row `n`, which `member_gram` discards.
        let globals: Vec<usize> = compact.queries().iter().map(|q| q.index()).collect();
        let mut pos = vec![n as u32; grams[0].rows()];
        for (local, &g) in globals.iter().enumerate() {
            pos[g] = local as u32;
        }
        let layers: Vec<(f64, CsrMatrix, Vec<f64>)> = grams
            .iter()
            .zip(config.alphas)
            .filter(|&(_, alpha)| alpha != 0.0)
            .map(|(gram, alpha)| {
                let s = member_gram(gram, &globals, &pos);
                // D_ii = Σ_j S_ij in local column order;
                // 𝓛 = D^{-1/2} S D^{-1/2}.
                let d_inv_sqrt = s
                    .row_sums()
                    .iter()
                    .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
                    .collect();
                (-alpha, s, d_inv_sqrt)
            })
            .collect();

        let diag = 1.0 + alpha_sum;
        let nnz_bound = n + layers.iter().map(|(_, s, _)| s.nnz()).sum::<usize>();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::with_capacity(nnz_bound);
        let mut values: Vec<f64> = Vec::with_capacity(nnz_bound);
        let mut acc = vec![0.0f64; n];
        let mut marked = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            acc[i] = diag;
            marked[i / 64] |= 1 << (i % 64);
            for (neg_alpha, s, d) in &layers {
                let di = d[i];
                let (cols, vals) = s.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = j as usize;
                    acc[j] += neg_alpha * ((v * di) * d[j]);
                    marked[j / 64] |= 1 << (j % 64);
                }
            }
            for (w, word) in marked.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let v = std::mem::take(&mut acc[j]);
                    if v != 0.0 {
                        col_idx.push(j as u32);
                        values.push(v);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        Regularizer {
            coefficient: CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values),
            config,
        }
    }

    /// The coefficient matrix (exposed for diagnostics and benches).
    pub fn coefficient(&self) -> &CsrMatrix {
        &self.coefficient
    }

    /// Builds the seed vector `F⁰`: 1 at the input query (local index 0 by
    /// construction of the compact representation), `e^{λ(t'−t)}` for each
    /// context query.
    ///
    /// `context` pairs each context query's *local index* with its age in
    /// seconds (`t_q − t_{q'} ≥ 0`).
    pub fn seed_vector(&self, n: usize, input_local: usize, context: &[(usize, u64)]) -> Vec<f64> {
        let mut f0 = vec![0.0; n];
        f0[input_local] = 1.0;
        for &(local, age) in context {
            // Eq. 7 with t_{q'} − t_q = −age.
            f0[local] = (-self.config.lambda * age as f64).exp();
        }
        f0[input_local] = 1.0; // input wins over any context alias
        f0
    }

    /// Solves Eq. 15 for `F*`.
    ///
    /// # Panics
    /// Panics if `f0` has the wrong length.
    pub fn solve(&self, f0: &[f64]) -> Vec<f64> {
        let report = ConjugateGradient::new(self.config.solver).solve(&self.coefficient, f0);
        debug_assert!(
            report.converged,
            "regularization solve did not converge: residual {}",
            report.residual_norm
        );
        report.solution
    }

    /// The full §IV-B step: seeds, solves and returns the local index of
    /// the most relevant candidate (largest `F*` entry outside the input
    /// and its context), or `None` when no other query carries mass.
    pub fn first_candidate(
        &self,
        input_local: usize,
        context: &[(usize, u64)],
    ) -> Option<(usize, Vec<f64>)> {
        let n = self.coefficient.rows();
        let f0 = self.seed_vector(n, input_local, context);
        let f_star = self.solve(&f0);
        let excluded: Vec<usize> = std::iter::once(input_local)
            .chain(context.iter().map(|&(l, _)| l))
            .collect();
        let best = (0..n)
            .filter(|i| !excluded.contains(i) && f_star[*i] > 0.0)
            .max_by(|&a, &b| f_star[a].partial_cmp(&f_star[b]).unwrap().then(b.cmp(&a)));
        best.map(|i| (i, f_star))
    }
}

/// `S = W Wᵀ` over the members `globals` (local order), gathered from the
/// full representation's Gram matrix `gram` through `pos` (global → local,
/// non-members → the sink row `globals.len()`).
///
/// Member rows of the compact `W` are verbatim copies of the global rows,
/// so `S(i, j)` is bit-equal to `gram(gᵢ, gⱼ)`, and `gram` is bitwise
/// symmetric. Scanning the members in local order `j` and scattering
/// `gram(gⱼ, c)` into row `pos[c]` therefore fills every row with the right
/// values, already in ascending local column order. Non-members land in
/// the sink, one slot that never advances, so the inner loops carry no
/// membership branch.
fn member_gram(gram: &CsrMatrix, globals: &[usize], pos: &[u32]) -> CsrMatrix {
    let n = globals.len();
    let mut row_ptr = vec![0usize; n + 2];
    for &g in globals {
        for &c in gram.row(g).0 {
            row_ptr[pos[c as usize] as usize + 1] += 1;
        }
    }
    row_ptr.truncate(n + 1);
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let nnz = row_ptr[n];
    let mut col_idx = vec![0u32; nnz + 1];
    let mut values = vec![0.0f64; nnz + 1];
    // The sink's cursor sits on the extra last slot and stays there.
    let mut cursor = row_ptr.clone();
    for (j, &g) in globals.iter().enumerate() {
        let (cols, vals) = gram.row(g);
        for (&c, &v) in cols.iter().zip(vals) {
            let r = pos[c as usize] as usize;
            let slot = cursor[r];
            col_idx[slot] = j as u32;
            values[slot] = v;
            cursor[r] = slot + usize::from(r != n);
        }
    }
    col_idx.truncate(nnz);
    values.truncate(nnz);
    CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_graph::multi::MultiBipartite;
    use pqsda_graph::weighting::WeightingScheme;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, QueryLog, UserId};

    fn compact_from_table_one() -> (QueryLog, MultiBipartite, CompactMulti) {
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
        let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
        let members: Vec<_> = (0..log.num_queries())
            .map(pqsda_querylog::QueryId::from_index)
            .collect();
        let compact = CompactMulti::project(&multi, members);
        (log, multi, compact)
    }

    #[test]
    fn coefficient_matrix_is_sdd_shaped() {
        let (_, _multi, compact) = compact_from_table_one();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let a = reg.coefficient();
        assert_eq!(a.rows(), compact.len());
        // Diagonal dominates: A_ii = 1 + Σα − α𝓛_ii ≥ 1; |off-diag row sum|
        // ≤ Σα since each 𝓛 row sums to ≤ 1 in absolute value.
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i}: diag {diag} vs off {off}");
        }
    }

    #[test]
    fn seed_vector_encodes_context_decay() {
        let (_, _multi, compact) = compact_from_table_one();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let f0 = reg.seed_vector(compact.len(), 0, &[(1, 60), (2, 600)]);
        assert_eq!(f0[0], 1.0);
        assert!(f0[1] > f0[2], "younger context weighs more");
        assert!(f0[1] < 1.0 && f0[2] > 0.0);
        assert!(f0[3..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn relevance_decays_with_graph_distance() {
        let (log, _multi, compact) = compact_from_table_one();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (_, f) = reg.first_candidate(sun, &[]).unwrap();
        // Every query connected to "sun" gets positive relevance.
        let sun_java = compact.local(log.find_query("sun java").unwrap()).unwrap();
        assert!(f[sun_java] > 0.0);
        assert!(f[sun] > f[sun_java], "input keeps the largest score");
    }

    #[test]
    fn first_candidate_is_a_structural_neighbor() {
        // Under cfiqf, Table I's most relevant candidate for "sun" is a
        // close call between "sun java" (session + term + URL paths, but a
        // diluted 3-query session) and "solar cell" (one path through the
        // more discriminative 2-query session). Either is a legitimate
        // winner; what must hold is that the candidate shares a session or
        // term with the input and clearly beats unrelated queries.
        let (log, _multi, compact) = compact_from_table_one();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let (first, f) = reg.first_candidate(sun, &[]).unwrap();
        assert_ne!(first, sun);
        let text = log.query_text(compact.global(first));
        assert!(
            ["sun java", "solar cell", "sun oracle", "java"].contains(&text),
            "unexpected first candidate {text} (f = {f:?})"
        );
        // "jvm download" shares only the diluted session: never the winner.
        let jvm = compact
            .local(log.find_query("jvm download").unwrap())
            .unwrap();
        assert!(f[first] > f[jvm]);
    }

    #[test]
    fn context_steers_the_first_candidate() {
        let (log, _multi, compact) = compact_from_table_one();
        let reg = Regularizer::new(&compact, RegularizationConfig::default());
        let sun = compact.local(log.find_query("sun").unwrap()).unwrap();
        let solar = compact
            .local(log.find_query("solar cell").unwrap())
            .unwrap();
        // With "solar cell" as fresh context, mass shifts toward the
        // astronomy/energy facet: the first candidate's score with context
        // must differ from the context-free one.
        let (_, f_plain) = reg.first_candidate(sun, &[]).unwrap();
        let (_, f_ctx) = reg.first_candidate(sun, &[(solar, 30)]).unwrap();
        assert!(
            (0..compact.len()).any(|i| (f_plain[i] - f_ctx[i]).abs() > 1e-9),
            "context must change the relevance field"
        );
    }

    #[test]
    fn zero_alphas_reduce_to_identity() {
        let (_, _multi, compact) = compact_from_table_one();
        let cfg = RegularizationConfig {
            alphas: [0.0; 3],
            ..RegularizationConfig::default()
        };
        let reg = Regularizer::new(&compact, cfg);
        // System is I; F* = F⁰; no candidate carries mass.
        assert!(reg.first_candidate(0, &[]).is_none());
    }
}
