//! The cross-bipartite random walk (paper §IV-C, Eq. 16) and its truncated
//! hitting time (Eq. 17).
//!
//! The walker stands on a query *inside one bipartite*. At each step it
//! either moves to a neighbour query within the current bipartite or
//! teleports to another bipartite first: the 3×3 matrix `N_q[i, j] =
//! p(X_j | q, X_i)` holds the per-query cross-bipartite transition
//! probabilities (uniform without prior knowledge, as the paper chooses),
//! and `P^X(q_a | q_b)` the intra-bipartite two-step transitions. The
//! state space is therefore `(bipartite, query)`; hitting a query means
//! hitting it in *any* bipartite, and the initial bipartite is uniform
//! (the paper's `M⁰` with 1/3 entries).

use pqsda_graph::bipartite::EntityKind;
use pqsda_graph::compact::CompactMulti;
use pqsda_graph::walk::two_step_transition;
use pqsda_linalg::csr::CsrMatrix;
use pqsda_parallel::{effective_threads, sweep_iterate_staged};

/// Work gate for the parallel hitting-time sweep, per thread. One sweep step
/// reads every layer's nonzeros once and writes each of the `d·q` states
/// once (`d` distinct rows of `N`, see `CrossBipartiteWalk::rows`), so
/// `nnz + d·q` is the step's work. A step pays two barriers, so the gate is
/// three times the single-barrier kernels' 16 384: at the serving shape
/// (512 queries, 30–50k nonzeros) a second participant saved nothing on a
/// 2-vCPU host.
const MIN_WORK_PER_THREAD: usize = 49_152;

/// A cross-bipartite walker over a compact representation.
#[derive(Clone, Debug)]
pub struct CrossBipartiteWalk {
    /// Intra-bipartite query→query transitions `P^X`, `{U, S, T}` order.
    transitions: [CsrMatrix; 3],
    /// Per layer row, `1 − mass` where the row's mass `Σ_j P^X[i,j]`
    /// (summed in column order) is below 1, else 0.0: mass that cannot
    /// move self-loops in place. Computed once here instead of re-summed
    /// on every sweep step.
    slack: [Vec<f64>; 3],
    /// Cross-bipartite transition `N` (shared by all queries; the paper
    /// uses equal weights absent prior knowledge). `n[i][j] = p(X_j|X_i)`.
    /// Kept as given, so the oracle tests read the matrix the caller
    /// passed, not one rebuilt from the groups below.
    n: [[f64; 3]; 3],
    /// The `d ∈ {1, 2, 3}` distinct rows of `N` (compared bit for bit), in
    /// order of first appearance. The uniform and mass-weighted walks have
    /// one.
    rows: Vec<[f64; 3]>,
    /// `group[x]`: the index in `rows` of start bipartite `x`'s row of `N`.
    group: [usize; 3],
    num_queries: usize,
}

impl CrossBipartiteWalk {
    /// Builds the walker with the uniform cross-bipartite transition —
    /// the paper's choice "without any prior knowledge".
    pub fn uniform(compact: &CompactMulti) -> Self {
        Self::with_cross_matrix(compact, [[1.0 / 3.0; 3]; 3])
    }

    /// Builds the walker with an *informed* cross-bipartite transition:
    /// the teleport probability into each bipartite is proportional to
    /// that bipartite's total edge mass in the compact representation, so
    /// information-rich bipartites attract the walker. An extension beyond
    /// the paper (which leaves "prior knowledge" unspecified); compared
    /// against uniform in the ablation harness.
    pub fn mass_weighted(compact: &CompactMulti) -> Self {
        let mut masses = [0.0f64; 3];
        for (i, kind) in EntityKind::ALL.iter().enumerate() {
            masses[i] = compact.matrix(*kind).row_sums().iter().sum();
        }
        let total: f64 = masses.iter().sum();
        let row = if total > 0.0 {
            [masses[0] / total, masses[1] / total, masses[2] / total]
        } else {
            [1.0 / 3.0; 3]
        };
        Self::with_cross_matrix(compact, [row, row, row])
    }

    /// Builds the walker with an explicit cross-bipartite matrix `N`
    /// (rows must sum to 1).
    pub fn with_cross_matrix(compact: &CompactMulti, n: [[f64; 3]; 3]) -> Self {
        for row in &n {
            let s: f64 = row.iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-9 && row.iter().all(|&p| p >= 0.0),
                "cross-bipartite matrix rows must be distributions"
            );
        }
        let transitions = EntityKind::ALL.map(|kind| {
            let w = compact.matrix(kind);
            // Local two-step transition: rownorm(W) · rownorm(Wᵀ)
            // restricted to the member rows. Entity columns are global but
            // both hops stay inside the member set by construction of the
            // projected matrices.
            let bip = pqsda_graph::bipartite::Bipartite::from_matrix(kind, w.clone());
            two_step_transition(&bip)
        });
        let slack = transitions.each_ref().map(|m| {
            (0..m.rows())
                .map(|i| {
                    let mut mass = 0.0;
                    for &p in m.row(i).1 {
                        mass += p;
                    }
                    if mass < 1.0 {
                        1.0 - mass
                    } else {
                        0.0
                    }
                })
                .collect()
        });
        let mut group = [0; 3];
        let mut rows: Vec<[f64; 3]> = Vec::with_capacity(3);
        for (x, row) in n.iter().enumerate() {
            let bits = row.map(f64::to_bits);
            group[x] = match rows.iter().position(|r| r.map(f64::to_bits) == bits) {
                Some(g) => g,
                None => {
                    rows.push(*row);
                    rows.len() - 1
                }
            };
        }
        CrossBipartiteWalk {
            transitions,
            slack,
            n,
            rows,
            group,
            num_queries: compact.len(),
        }
    }

    /// Number of queries (per-bipartite layer size).
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// The intra-bipartite transition of one layer.
    pub fn layer(&self, kind: EntityKind) -> &CsrMatrix {
        &self.transitions[kind as usize]
    }

    /// The cross-bipartite transition `N` (`n[x][y] = p(X_y | X_x)`).
    pub fn cross_matrix(&self) -> [[f64; 3]; 3] {
        self.n
    }

    /// Number of hitting-time vectors a sweep carries: one per distinct
    /// row of `N`.
    pub(crate) fn state_vectors(&self) -> usize {
        self.rows.len()
    }

    /// Truncated expected hitting time from every query to the target set
    /// `S` (Eq. 17), over the augmented `(bipartite, query)` chain with
    /// horizon `l`. The returned value per query averages the three
    /// possible start bipartites (the paper's uniform `M⁰`).
    ///
    /// Thread count is resolved automatically; use
    /// [`CrossBipartiteWalk::hitting_time_with_threads`] to pin it. Results
    /// are bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics if `targets` is empty or out of range.
    pub fn hitting_time(&self, targets: &[usize], horizon: usize) -> Vec<f64> {
        self.hitting_time_with_threads(targets, horizon, 0)
    }

    /// [`CrossBipartiteWalk::hitting_time`] with an explicit thread count
    /// (`0` = auto).
    ///
    /// The augmented chain has `3q` states `(x, i)` = (bipartite `x`, query
    /// `i`) and transitions `P[(x,i)→(y,j)] = N[x][y]·P^y[i,j]`, so one
    /// step is `h'(x,i) = 1 + Σ_y N[x][y]·g_y(i)` with `g_y(i) = Σ_j
    /// P^y[i,j]·h(y,j)` (plus the row's slack `(1 − mass)·h(y,i)`).
    ///
    /// Start bipartites whose rows of `N` are bitwise equal see the same
    /// f64 operations on the same `g` values at every step, so their `h`
    /// vectors are bit-identical: the sweep keeps one vector per distinct
    /// row (`d` of them, one for the uniform and mass-weighted walks), and
    /// layer `y` reads the vector of `y`'s group. `g_y(i)` does not depend
    /// on `x`, so each step runs in two phases: phase 1 computes all `3q`
    /// values of `g` in one pass over each layer's rows (two rows at a
    /// time, see `layer_moves`), phase 2 combines them per `(group,
    /// query)` state. A step therefore costs one pass over every layer's
    /// nonzeros plus `O(d·q)`.
    ///
    /// Step 1 starts from `h = 0`, where every product is `+0.0`, so it is
    /// written directly: `1.0` off the targets and `0.0` on them.
    ///
    /// Every state's value goes through the same f64 operations in the
    /// same order as a per-state loop over all `3q` states that recomputes
    /// `g_y(i)` for each `x`: the row product in column order, then the
    /// slack, then the `N`-weighted sum over `y = 0..2` skipping zero
    /// weights; the returned average adds the three start bipartites'
    /// values in order `x = 0, 1, 2`. Only where, when and how often each
    /// value is computed changes, not how, so the bits do not. Both phases
    /// split their indices across the participants of one
    /// barrier-synchronized region spanning the whole horizon (see
    /// [`pqsda_parallel::sweep_iterate_staged`]), so results are
    /// bit-identical for any `threads`.
    pub fn hitting_time_with_threads(
        &self,
        targets: &[usize],
        horizon: usize,
        threads: usize,
    ) -> Vec<f64> {
        let mut scratch = HittingTimeScratch::default();
        let mut out = Vec::new();
        self.hitting_time_into(targets, horizon, threads, &mut scratch, &mut out);
        out
    }

    /// [`CrossBipartiteWalk::hitting_time_with_threads`] writing into
    /// caller-owned buffers, so repeated evaluations (e.g. the greedy
    /// selection loop of Algorithm 1, which re-solves with a growing target
    /// set every round) reuse their allocations instead of re-allocating
    /// state vectors per round. Results are identical to
    /// [`CrossBipartiteWalk::hitting_time`].
    pub fn hitting_time_into(
        &self,
        targets: &[usize],
        horizon: usize,
        threads: usize,
        scratch: &mut HittingTimeScratch,
        out: &mut Vec<f64>,
    ) {
        assert!(!targets.is_empty(), "hitting_time: empty target set");
        let q = self.num_queries;
        scratch.in_target.clear();
        scratch.in_target.resize(q, false);
        for &t in targets {
            assert!(t < q, "hitting_time: target {t} out of range");
            scratch.in_target[t] = true;
        }
        let (d, group) = (self.state_vectors(), self.group);
        let work = self.transitions.iter().map(|t| t.nnz()).sum::<usize>() + d * q;
        let threads = effective_threads(threads, work, MIN_WORK_PER_THREAD);
        // h[g*q + i]: hitting time from query i in a bipartite of group g,
        // after step 1 (or 0.0 everywhere at horizon 0).
        // g[y*q + i]: expected `h` after one move inside layer y from i.
        let in_target = &scratch.in_target;
        scratch.h.clear();
        scratch.h.extend((0..d * q).map(|s| {
            if horizon > 0 && !in_target[s % q] {
                1.0
            } else {
                0.0
            }
        }));
        scratch.next.clear();
        scratch.next.resize(d * q, 0.0);
        scratch.g.clear();
        scratch.g.resize(3 * q, 0.0);
        sweep_iterate_staged(
            &mut scratch.h,
            &mut scratch.next,
            &mut scratch.g,
            horizon.saturating_sub(1),
            threads,
            // Phase 1: one pass over each layer's rows; a chunk may span
            // a layer boundary.
            |mut k, mut chunk, h| {
                while !chunk.is_empty() {
                    let (y, i) = (k / q, k % q);
                    let len = chunk.len().min(q - i);
                    let (part, rest) = std::mem::take(&mut chunk).split_at_mut(len);
                    let from = group[y] * q;
                    layer_moves(
                        &self.transitions[y],
                        &self.slack[y],
                        &h[from..from + q],
                        i,
                        part,
                    );
                    (chunk, k) = (rest, k + len);
                }
            },
            // Phase 2: teleport to bipartite y with probability N[x][y]
            // (x any bipartite of the state's group r), then take layer
            // y's move.
            |s, g| {
                let (r, i) = (s / q, s % q);
                if in_target[i] {
                    return 0.0;
                }
                let mut acc = 0.0;
                for (y, &p_y) in self.rows[r].iter().enumerate() {
                    if p_y == 0.0 {
                        continue;
                    }
                    acc += p_y * g[y * q + i];
                }
                1.0 + acc
            },
        );
        out.clear();
        let h = &scratch.h;
        let [a, b, c] = group.map(|g| &h[g * q..(g + 1) * q]);
        out.extend((0..q).map(|i| (a[i] + b[i] + c[i]) / 3.0));
    }
}

/// Writes `out[r] = g(i0 + r)` for rows `i0..` of one layer `m`, where
/// `g(i)` is the expected `h_y` after one move from query `i` inside the
/// layer: the row product in column order ([`CsrMatrix::mul_vec_rows`]),
/// plus `slack[i]·h_y(i)` when the row's mass is below 1 (`slack[i] > 0`,
/// see `CrossBipartiteWalk::slack`).
fn layer_moves(m: &CsrMatrix, slack: &[f64], h_y: &[f64], i0: usize, out: &mut [f64]) {
    m.mul_vec_rows(i0, h_y, out);
    for (g, i) in out.iter_mut().zip(i0..) {
        if slack[i] > 0.0 {
            *g += slack[i] * h_y[i];
        }
    }
}

/// Reusable buffers for [`CrossBipartiteWalk::hitting_time_into`].
#[derive(Clone, Debug, Default)]
pub struct HittingTimeScratch {
    h: Vec<f64>,
    next: Vec<f64>,
    g: Vec<f64>,
    in_target: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_graph::multi::MultiBipartite;
    use pqsda_graph::weighting::WeightingScheme;
    use pqsda_querylog::session::{segment_sessions, SessionConfig};
    use pqsda_querylog::{LogEntry, QueryId, QueryLog, UserId};

    fn compact() -> (QueryLog, CompactMulti) {
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
        let members: Vec<_> = (0..log.num_queries()).map(QueryId::from_index).collect();
        (log, CompactMulti::project(&multi, members))
    }

    #[test]
    fn layers_are_row_stochastic_or_empty() {
        let (_, c) = compact();
        let walk = CrossBipartiteWalk::uniform(&c);
        for kind in EntityKind::ALL {
            for s in walk.layer(kind).row_sums() {
                assert!(s.abs() < 1e-12 || (s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hitting_time_zero_on_targets_and_bounded() {
        let (log, c) = compact();
        let walk = CrossBipartiteWalk::uniform(&c);
        let sun = c.local(log.find_query("sun").unwrap()).unwrap();
        let h = walk.hitting_time(&[sun], 25);
        assert_eq!(h[sun], 0.0);
        for &x in &h {
            assert!((0.0..=25.0).contains(&x));
        }
    }

    #[test]
    fn cross_walk_reaches_more_than_single_bipartite() {
        // In Table I, "jvm download" has no clicks: unreachable via the
        // URL bipartite alone, but reachable via sessions. The cross walk
        // must give it a finite (sub-horizon) hitting time to "sun".
        let (log, c) = compact();
        let walk = CrossBipartiteWalk::uniform(&c);
        let sun = c.local(log.find_query("sun").unwrap()).unwrap();
        let jvm = c.local(log.find_query("jvm download").unwrap()).unwrap();
        let horizon = 60;
        let h = walk.hitting_time(&[sun], horizon);
        assert!(
            h[jvm] < horizon as f64 * 0.99,
            "cross-bipartite walk must reach jvm download: {}",
            h[jvm]
        );
        // URL-only walker: N pinned to the URL bipartite.
        let url_only = CrossBipartiteWalk::with_cross_matrix(
            &c,
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        );
        let h_url = url_only.hitting_time(&[sun], horizon);
        assert!(
            h_url[jvm] >= horizon as f64 * 0.99,
            "URL-only walker must NOT reach jvm download: {}",
            h_url[jvm]
        );
    }

    #[test]
    fn multi_path_queries_hit_sooner_than_single_path() {
        // Compare on the RAW representation where path counting is exact:
        // "sun java" reaches "sun" through session AND term paths;
        // "jvm download" only through the shared (3-query) session.
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
        let members: Vec<_> = (0..log.num_queries()).map(QueryId::from_index).collect();
        let c = CompactMulti::project(&multi, members);
        let walk = CrossBipartiteWalk::uniform(&c);
        let sun = c.local(log.find_query("sun").unwrap()).unwrap();
        let sun_java = c.local(log.find_query("sun java").unwrap()).unwrap();
        let jvm = c.local(log.find_query("jvm download").unwrap()).unwrap();
        let h = walk.hitting_time(&[sun], 40);
        assert!(h[sun_java] < h[jvm], "{} vs {}", h[sun_java], h[jvm]);
    }

    #[test]
    fn more_targets_never_increase_hitting_time() {
        let (log, c) = compact();
        let walk = CrossBipartiteWalk::uniform(&c);
        let sun = c.local(log.find_query("sun").unwrap()).unwrap();
        let java = c.local(log.find_query("java").unwrap()).unwrap();
        let h1 = walk.hitting_time(&[sun], 30);
        let h2 = walk.hitting_time(&[sun, java], 30);
        for i in 0..c.len() {
            assert!(h2[i] <= h1[i] + 1e-9);
        }
    }

    #[test]
    fn one_vector_per_distinct_cross_row() {
        let (_, c) = compact();
        assert_eq!(CrossBipartiteWalk::uniform(&c).state_vectors(), 1);
        assert_eq!(CrossBipartiteWalk::mass_weighted(&c).state_vectors(), 1);
        let (a, b) = ([0.5, 0.25, 0.25], [0.0, 0.25, 0.75]);
        let two = CrossBipartiteWalk::with_cross_matrix(&c, [a, b, a]);
        assert_eq!((two.state_vectors(), two.group), (2, [0, 1, 0]));
        let three = CrossBipartiteWalk::with_cross_matrix(&c, [b, a, [0.0, 1.0, 0.0]]);
        assert_eq!((three.state_vectors(), three.group), (3, [0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "distributions")]
    fn invalid_cross_matrix_rejected() {
        let (_, c) = compact();
        CrossBipartiteWalk::with_cross_matrix(&c, [[0.5; 3]; 3]);
    }

    #[test]
    fn mass_weighted_walker_is_valid_and_differs_from_uniform() {
        let (log, c) = compact();
        let uniform = CrossBipartiteWalk::uniform(&c);
        let weighted = CrossBipartiteWalk::mass_weighted(&c);
        let sun = c.local(log.find_query("sun").unwrap()).unwrap();
        let hu = uniform.hitting_time(&[sun], 30);
        let hw = weighted.hitting_time(&[sun], 30);
        assert_eq!(hu.len(), hw.len());
        assert_eq!(hw[sun], 0.0);
        for &x in &hw {
            assert!((0.0..=30.0).contains(&x));
        }
        // The bipartites carry unequal mass here, so the walks differ.
        assert!(
            hu.iter().zip(&hw).any(|(a, b)| (a - b).abs() > 1e-9),
            "mass weighting had no effect"
        );
    }
}
