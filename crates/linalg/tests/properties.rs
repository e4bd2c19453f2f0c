//! Property-based tests for the linear-algebra substrate.
#![allow(clippy::needless_range_loop)]

use pqsda_linalg::csr::{CooBuilder, CsrMatrix};
use pqsda_linalg::solver::{ConjugateGradient, Jacobi, LinearSolver};
use pqsda_linalg::special::{digamma, ln_gamma};
use pqsda_linalg::{dense, stats, BetaDistribution};
use proptest::prelude::*;

/// Strategy: a random sparse matrix given as triplets over a small shape.
fn triplets(rows: usize, cols: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..rows, 0..cols, -10.0f64..10.0), 0..(rows * cols).min(64))
}

fn build(rows: usize, cols: usize, ts: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut b = CooBuilder::new(rows, cols);
    for &(r, c, v) in ts {
        b.push(r, c, v);
    }
    b.build()
}

proptest! {
    #[test]
    fn csr_invariants_hold_for_any_triplets(ts in triplets(7, 5)) {
        let m = build(7, 5, &ts);
        prop_assert!(m.check_invariants());
    }

    #[test]
    fn csr_get_matches_triplet_sums(ts in triplets(6, 6)) {
        let m = build(6, 6, &ts);
        let mut dense = vec![vec![0.0; 6]; 6];
        for &(r, c, v) in &ts {
            dense[r][c] += v;
        }
        for r in 0..6 {
            for c in 0..6 {
                prop_assert!((m.get(r, c) - dense[r][c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_is_involution(ts in triplets(5, 8)) {
        let m = build(5, 8, &ts);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_is_linear(ts in triplets(6, 6),
                        x in prop::collection::vec(-5.0f64..5.0, 6),
                        y in prop::collection::vec(-5.0f64..5.0, 6),
                        a in -3.0f64..3.0) {
        let m = build(6, 6, &ts);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let lhs = m.mul_vec(&combo);
        let mx = m.mul_vec(&x);
        let my = m.mul_vec(&y);
        for i in 0..6 {
            prop_assert!((lhs[i] - (a * mx[i] + my[i])).abs() < 1e-8);
        }
    }

    #[test]
    fn transpose_matvec_adjoint_identity(ts in triplets(5, 7),
                                         x in prop::collection::vec(-5.0f64..5.0, 7),
                                         y in prop::collection::vec(-5.0f64..5.0, 5)) {
        // <A x, y> == <x, A^T y>
        let m = build(5, 7, &ts);
        let ax = m.mul_vec(&x);
        let aty = m.mul_vec_transposed(&y);
        let lhs = dense::dot(&ax, &y);
        let rhs = dense::dot(&x, &aty);
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn row_normalized_rows_sum_to_one_or_zero(ts in triplets(6, 6)) {
        let m = build(6, 6, &ts).map_values(f64::abs);
        let n = m.row_normalized();
        for s in n.row_sums() {
            prop_assert!(s.abs() < 1e-12 || (s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn solvers_agree_on_random_sdd_systems(
        offdiag in prop::collection::vec((0usize..8, 0usize..8, 0.01f64..1.0), 0..20),
        rhs in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        // Build a symmetric strictly diagonally dominant matrix.
        let mut b = CooBuilder::new(8, 8);
        let mut rowsum = [0.0; 8];
        for &(r, c, v) in &offdiag {
            if r != c {
                b.push(r, c, -v);
                b.push(c, r, -v);
                rowsum[r] += v;
                rowsum[c] += v;
            }
        }
        for (i, extra) in rowsum.iter().enumerate() {
            b.push(i, i, extra + 1.0);
        }
        let a = b.build();
        let j = Jacobi::default().solve(&a, &rhs);
        let c = ConjugateGradient::default().solve(&a, &rhs);
        prop_assert!(j.converged && c.converged);
        for i in 0..8 {
            prop_assert!((j.solution[i] - c.solution[i]).abs() < 1e-5,
                "jacobi {:?} vs cg {:?}", j.solution, c.solution);
        }
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.05f64..500.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn digamma_monotone_increasing(x in 0.1f64..100.0, d in 0.01f64..10.0) {
        prop_assert!(digamma(x + d) > digamma(x));
    }

    #[test]
    fn beta_moment_fit_round_trip(mean in 0.05f64..0.95, frac in 0.01f64..0.9) {
        // variance must be < mean(1-mean); parameterize by a fraction of it.
        let variance = frac * mean * (1.0 - mean) * 0.99;
        let d = BetaDistribution::fit_moments(mean, variance);
        prop_assert!((d.mean() - mean).abs() < 1e-6);
        prop_assert!((d.variance() - variance).abs() < 1e-6);
    }

    #[test]
    fn sample_discrete_in_range_and_weight_respecting(
        w in prop::collection::vec(0.0f64..10.0, 1..20),
        u in 0.0f64..1.0,
    ) {
        prop_assume!(w.iter().sum::<f64>() > 0.0);
        let i = stats::sample_discrete(&w, u);
        prop_assert!(i < w.len());
        prop_assert!(w[i] > 0.0, "sampled a zero-weight cell");
    }

    #[test]
    fn log_sum_exp_bounds(xs in prop::collection::vec(-50.0f64..50.0, 1..30)) {
        let lse = stats::log_sum_exp(&xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    }
}

// Bit-identity of the parallel kernels: for ANY thread count the result must
// equal the single-threaded one exactly (== on f64, no tolerance). The
// parallel paths split rows across threads but keep every per-row reduction
// in the same order, so this is an equality the implementation guarantees,
// not a numerical accident.
proptest! {
    #[test]
    fn spmv_is_bit_identical_across_thread_counts(
        ts in triplets(9, 9),
        x in prop::collection::vec(-5.0f64..5.0, 9),
        threads in 2usize..9,
    ) {
        let m = build(9, 9, &ts);
        let mut serial = vec![0.0; 9];
        let mut parallel = vec![0.0; 9];
        m.mul_vec_into_with_threads(&x, &mut serial, 1);
        m.mul_vec_into_with_threads(&x, &mut parallel, threads);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn row_normalize_is_bit_identical_across_thread_counts(
        ts in triplets(8, 6),
        threads in 2usize..9,
    ) {
        let m = build(8, 6, &ts);
        prop_assert_eq!(
            m.row_normalized_with_threads(1),
            m.row_normalized_with_threads(threads)
        );
    }

    #[test]
    fn spgemm_is_bit_identical_across_thread_counts(
        a in triplets(7, 5),
        b in triplets(5, 6),
        threads in 2usize..9,
    ) {
        let a = build(7, 5, &a);
        let b = build(5, 6, &b);
        prop_assert_eq!(a.mul_with_threads(&b, 1), a.mul_with_threads(&b, threads));
    }

    #[test]
    fn solvers_are_bit_identical_across_thread_counts(
        ts in triplets(6, 6),
        threads in 2usize..9,
    ) {
        // Diagonally-dominant SPD-ish system so both solvers converge.
        let mut b = CooBuilder::new(6, 6);
        for &(r, c, v) in &ts {
            b.push(r, c, v / 100.0);
            b.push(c, r, v / 100.0);
        }
        for i in 0..6 {
            b.push(i, i, 4.0);
        }
        let a = b.build();
        let rhs: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();

        let j1 = Jacobi::default().solve_with_threads(&a, &rhs, 1);
        let jn = Jacobi::default().solve_with_threads(&a, &rhs, threads);
        prop_assert_eq!(j1.solution, jn.solution);
        prop_assert_eq!(j1.iterations, jn.iterations);

        let c1 = ConjugateGradient::default().solve_with_threads(&a, &rhs, 1);
        let cn = ConjugateGradient::default().solve_with_threads(&a, &rhs, threads);
        prop_assert_eq!(c1.solution, cn.solution);
        prop_assert_eq!(c1.iterations, cn.iterations);
    }
}

/// `y = A x` one row at a time, each row summed in column order: the
/// oracle the two-rows-at-a-time mat-vec must match bit for bit.
fn one_row_mul_vec(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|r| {
            let (cols, vals) = m.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            acc
        })
        .collect()
}

/// A `rows × 256` matrix past the mat-vec's 4-thread work gate (16 384
/// nonzeros per thread): row `r` holds `7r mod 41` pseudo-random entries, so
/// every 41st row is empty and neighbouring rows differ in length.
fn wide_matrix(rows: usize, seed: u64) -> CsrMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = CooBuilder::new(rows, 256);
    for r in 0..rows {
        for _ in 0..(7 * r) % 41 {
            let v = (next() % 2001) as f64 / 100.0 - 10.0;
            b.push(r, (next() % 256) as usize, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paired mat-vec equals the one-row loop bit for bit at 1, 2 and
    /// 4 threads: small matrices with empty rows and odd or even row
    /// counts (serial under the work gate), and matrices past the gate
    /// whose thread chunks start at odd rows.
    #[test]
    fn paired_spmv_matches_one_row_loop(
        rows in 1usize..12,
        ts in triplets(11, 7),
        x in prop::collection::vec(-5.0f64..5.0, 7),
        wide_rows in 4_001usize..4_100,
        seed in any::<u64>(),
    ) {
        let ts: Vec<_> = ts.into_iter().filter(|&(r, _, _)| r < rows).collect();
        let small = build(rows, 7, &ts);
        let wide = wide_matrix(wide_rows, seed);
        let wide_x: Vec<f64> = (0..256).map(|i| x[i % 7] * (1.0 + i as f64 / 256.0)).collect();
        prop_assert!(wide.nnz() >= 4 * 16_384);
        for (m, x) in [(&small, &x), (&wide, &wide_x)] {
            let expected: Vec<u64> = one_row_mul_vec(m, x).iter().map(|v| v.to_bits()).collect();
            for threads in [1, 2, 4] {
                let mut y = vec![f64::NAN; m.rows()];
                m.mul_vec_into_with_threads(x, &mut y, threads);
                let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &expected, "threads {}", threads);
            }
            // A row range starting anywhere, odd offsets included.
            let i0 = (seed % m.rows() as u64) as usize;
            let mut part = vec![f64::NAN; m.rows() - i0];
            m.mul_vec_rows(i0, x, &mut part);
            let got: Vec<u64> = part.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got[..], &expected[i0..], "rows from {}", i0);
        }
    }
}
