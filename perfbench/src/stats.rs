//! Order statistics shared by every workload.

/// Samples a reported tail percentile must leave beyond itself.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Quartiles in the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Fewest samples at which percentile `pct` (e.g. 99.0) leaves
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest-rank position.
pub fn tail_min_samples(pct: f64) -> usize {
    (1..)
        .find(|&n| tail_rank(n, pct).is_some())
        .expect("some sample count supports every percentile below 100")
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples, or
/// `None` when fewer than [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail_rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 || !(0.0..100.0).contains(&pct) {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    (n - 1 - idx >= TAIL_MIN_BEYOND).then_some(idx)
}

/// The `pct` percentile of `xs` by nearest rank, or `None` when the
/// sample cannot leave [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64], pct: f64) -> Option<f64> {
    let idx = tail_rank(xs.len(), pct)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[idx])
}
