//! The host yardstick: a fixed, seeded sparse gather-matvec owned by the
//! benchmark.
//!
//! Speed of cache-bound floating-point code drifts on a shared host even
//! with zero steal time. Engine-bound operations are therefore timed
//! next to this kernel, and each reports `op_ms × REF_NOMINAL_MS /
//! ref_ms`, so the drift divides out. The kernel stays L2-sized (≈1.2 MB):
//! a much larger variant did not track the drift. One untimed warm pass
//! runs before the timed passes, so the reference does not depend on
//! what the timed operation left in cache.

use std::hint::black_box;
use std::time::Instant;

/// Rows of the reference matrix.
pub const REF_ROWS: usize = 8192;
/// Nonzeros per row.
pub const REF_NNZ_PER_ROW: usize = 12;
/// Seed of the matrix pattern and values.
pub const REF_SEED: u64 = 0x0005_EED0_F4EF;
/// Timed passes per reference measurement (after one warm pass).
pub const REF_PASSES: usize = 5;
/// The reference time the normalized metrics are scaled to (ms for
/// `REF_PASSES` passes). Recorded in `perfbench/README.md`.
pub const REF_NOMINAL_MS: f64 = 0.6;

/// splitmix64: the benchmark's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded reference matrix with its input and output vectors.
pub struct RefKernel {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    /// Builds the matrix from [`REF_SEED`].
    pub fn new() -> Self {
        let mut s = REF_SEED;
        let nnz = REF_ROWS * REF_NNZ_PER_ROW;
        let cols = (0..nnz)
            .map(|_| (splitmix64(&mut s) % REF_ROWS as u64) as u32)
            .collect();
        let vals = (0..nnz)
            .map(|_| (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            .collect();
        let x = (0..REF_ROWS)
            .map(|_| (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        RefKernel {
            cols,
            vals,
            x,
            y: vec![0.0; REF_ROWS],
        }
    }

    /// One gather-matvec pass; returns the checksum of the output.
    pub fn pass(&mut self) -> f64 {
        let x = black_box(&self.x);
        for (r, y) in self.y.iter_mut().enumerate() {
            let base = r * REF_NNZ_PER_ROW;
            let cols = &self.cols[base..base + REF_NNZ_PER_ROW];
            let vals = &self.vals[base..base + REF_NNZ_PER_ROW];
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *y = acc;
        }
        self.y.iter().sum()
    }

    /// One warm pass, then the time of [`REF_PASSES`] passes in ms.
    pub fn measure_ms(&mut self) -> f64 {
        black_box(self.pass());
        let t = Instant::now();
        for _ in 0..REF_PASSES {
            black_box(self.pass());
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}
