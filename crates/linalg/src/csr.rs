//! Compressed sparse row (CSR) matrices.
//!
//! All query-log representations in this reproduction — the click graph, the
//! three bipartites of the multi-bipartite representation (paper §III) and
//! the coefficient matrix of the regularization system (Eq. 15) — are sparse
//! rectangular matrices. CSR gives `O(nnz)` mat-vec, which is exactly the
//! complexity the paper cites for solving Eq. 15 ("linear in the number of
//! non-zero entries").

use std::fmt;

use crate::shared::SharedSlice;
use pqsda_parallel::{
    effective_threads, for_each_chunk_mut, for_each_part_mut, map_indexed, split_even,
};

/// Work gate for row-parallel kernels: below this many nonzeros per thread
/// the serial path wins (scoped-thread spawn cost dominates).
const MIN_NNZ_PER_THREAD: usize = 16_384;

/// An immutable sparse matrix in compressed sparse row format.
///
/// ```
/// use pqsda_linalg::csr::CooBuilder;
/// let mut b = CooBuilder::new(2, 3);
/// b.push(0, 0, 1.0);
/// b.push(0, 2, 2.0);
/// b.push(1, 1, 3.0);
/// let m = b.build();
/// assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
/// assert_eq!(m.get(0, 2), 2.0);
/// ```
///
/// Invariants (checked by the builder and by `debug_assert`s):
/// * `row_ptr.len() == rows + 1`, `row_ptr\[0\] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing and `< cols`.
///
/// The three arrays live in [`SharedSlice`]s so a snapshot-loaded matrix
/// can borrow them zero-copy out of a memory mapping; any mutation goes
/// through `to_mut()` and copies on write, so mapped storage is never
/// written through.
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: SharedSlice<usize>,
    col_idx: SharedSlice<u32>,
    values: SharedSlice<f64>,
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

impl CsrMatrix {
    /// The all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1].into(),
            col_idx: SharedSlice::new(),
            values: SharedSlice::new(),
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect::<Vec<_>>().into(),
            col_idx: (0..n as u32).collect::<Vec<_>>().into(),
            values: vec![1.0; n].into(),
        }
    }

    /// A diagonal matrix from its diagonal entries (zeros are kept explicit
    /// so the structure stays predictable).
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect::<Vec<_>>().into(),
            col_idx: (0..n as u32).collect::<Vec<_>>().into(),
            values: diag.to_vec().into(),
        }
    }

    /// Assembles a matrix from prevalidated-looking parts — typically
    /// zero-copy views into a snapshot mapping — running the full CSR
    /// invariant checks (the input is untrusted file content).
    pub fn from_shared_parts(
        rows: usize,
        cols: usize,
        row_ptr: SharedSlice<usize>,
        col_idx: SharedSlice<u32>,
        values: SharedSlice<f64>,
    ) -> Result<CsrMatrix, &'static str> {
        let m = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        if m.row_ptr.len() != m.rows + 1 {
            return Err("csr: indptr length != rows + 1");
        }
        if m.check_invariants() {
            Ok(m)
        } else {
            Err("csr: invariant violation in stored arrays")
        }
    }

    /// Wraps CSR arrays a kernel has just built row by row, each row's
    /// columns strictly increasing (checked in debug builds only; use
    /// [`CsrMatrix::from_shared_parts`] for untrusted input).
    ///
    /// # Panics
    /// Panics if the array lengths disagree with each other or with `rows`.
    pub fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        assert_eq!(row_ptr.len(), rows + 1, "csr: indptr length != rows + 1");
        assert_eq!(row_ptr[rows], col_idx.len(), "csr: indptr end != nnz");
        assert_eq!(col_idx.len(), values.len(), "csr: indices/values length");
        let m = CsrMatrix {
            rows,
            cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants());
        m
    }

    /// The raw CSR arrays `(indptr, indices, values)` — the serialization
    /// view of the matrix.
    pub fn parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Whether any of the three arrays still borrows from a snapshot
    /// mapping (provenance for benches; false after any copy-on-write).
    pub fn is_mapped(&self) -> bool {
        self.row_ptr.is_mapped() || self.col_idx.is_mapped() || self.values.is_mapped()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Mutable access to the values of row `r` (structure is immutable).
    #[inline]
    pub fn row_values_mut(&mut self, r: usize) -> &mut [f64] {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        &mut self.values.to_mut()[s..e]
    }

    /// Value at `(r, c)`, or 0.0 when the entry is structurally absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(row, col, value)` over all stored entries in row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Dense mat-vec `y = A * x`.
    ///
    /// Thread count is resolved automatically (`0` = auto with a work gate);
    /// use [`CsrMatrix::mul_vec_into_with_threads`] to pin it. Row-parallel,
    /// so results are bit-identical for any thread count.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into_with_threads(x, y, 0);
    }

    /// [`CsrMatrix::mul_vec_into`] with an explicit thread count (`0` = auto).
    pub fn mul_vec_into_with_threads(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.cols, "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec: y length mismatch");
        let threads = effective_threads(threads, self.nnz(), MIN_NNZ_PER_THREAD);
        for_each_chunk_mut(y, threads, |offset, chunk| {
            self.mul_vec_rows(offset, x, chunk)
        });
    }

    /// Writes `out[r] = A[i0 + r, :] · x` for rows `i0..i0 + out.len()`.
    ///
    /// Rows go two at a time with their accumulations interleaved. Each
    /// row's own additions keep their column order, so every value has the
    /// bits of the one-row loop, but the two dependency chains of
    /// floating-point adds run side by side instead of one after the other.
    ///
    /// # Panics
    /// Panics if the row range runs past `rows` or a column is outside `x`.
    pub fn mul_vec_rows(&self, i0: usize, x: &[f64], out: &mut [f64]) {
        let mut pairs = out.chunks_exact_mut(2);
        let mut r = i0;
        for pair in &mut pairs {
            let ((ca, va), (cb, vb)) = (self.row(r), self.row(r + 1));
            let n = ca.len().min(cb.len());
            let (mut a, mut b) = (0.0, 0.0);
            for ((&ja, &pa), (&jb, &pb)) in ca[..n].iter().zip(&va[..n]).zip(cb.iter().zip(vb)) {
                a += pa * x[ja as usize];
                b += pb * x[jb as usize];
            }
            pair[0] = row_dot(&ca[n..], &va[n..], x, a);
            pair[1] = row_dot(&cb[n..], &vb[n..], x, b);
            r += 2;
        }
        if let [last] = pairs.into_remainder() {
            let (cols, vals) = self.row(r);
            *last = row_dot(cols, vals, x, 0.0);
        }
    }

    /// Allocating mat-vec `A * x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Transposed mat-vec `y = Aᵀ * x` without materializing the transpose.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "mul_vec_transposed: x length mismatch");
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xr;
            }
        }
        y
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in self.col_idx.iter() {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut cursor = counts;
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for (r, c, v) in self.iter() {
            let slot = cursor[c];
            col_idx[slot] = r as u32;
            values[slot] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        }
    }

    /// Sum of each row's values.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row(r).1.iter().sum()).collect()
    }

    /// Sum of each column's values.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for (_, c, v) in self.iter() {
            s[c] += v;
        }
        s
    }

    /// Returns a row-stochastic copy: every non-empty row is scaled to sum
    /// to 1 (empty rows stay empty — the walk has nowhere to go from them).
    ///
    /// Thread count is resolved automatically; use
    /// [`CsrMatrix::row_normalized_with_threads`] to pin it. Row-parallel,
    /// so results are bit-identical for any thread count.
    pub fn row_normalized(&self) -> CsrMatrix {
        self.row_normalized_with_threads(0)
    }

    /// [`CsrMatrix::row_normalized`] with an explicit thread count (`0` = auto).
    pub fn row_normalized_with_threads(&self, threads: usize) -> CsrMatrix {
        let mut out = self.clone();
        let threads = effective_threads(threads, out.nnz(), MIN_NNZ_PER_THREAD);
        // Value parts are cut at row boundaries so each thread normalizes
        // whole rows of its own disjoint slice.
        let spans = split_even(out.rows, threads);
        let mut bounds: Vec<usize> = Vec::with_capacity(spans.len() + 1);
        bounds.push(0);
        bounds.extend(spans.iter().map(|&(_, end)| out.row_ptr[end]));
        let values = out.values.to_mut();
        let row_ptr = &out.row_ptr;
        for_each_part_mut(values, &bounds, |k, part| {
            let (r0, r1) = spans[k];
            let base = row_ptr[r0];
            for r in r0..r1 {
                let row = &mut part[row_ptr[r] - base..row_ptr[r + 1] - base];
                let sum: f64 = row.iter().sum();
                if sum > 0.0 {
                    let inv = 1.0 / sum;
                    for v in row {
                        *v *= inv;
                    }
                }
            }
        });
        out
    }

    /// Scales row `r` by `factors[r]` for every row.
    pub fn scale_rows(&self, factors: &[f64]) -> CsrMatrix {
        assert_eq!(factors.len(), self.rows, "scale_rows: factor length");
        let mut out = self.clone();
        for r in 0..out.rows {
            let f = factors[r];
            for v in out.row_values_mut(r) {
                *v *= f;
            }
        }
        out
    }

    /// Scales column `c` by `factors[c]` for every column.
    pub fn scale_cols(&self, factors: &[f64]) -> CsrMatrix {
        assert_eq!(factors.len(), self.cols, "scale_cols: factor length");
        let mut out = self.clone();
        let vals = out.values.to_mut();
        for i in 0..self.col_idx.len() {
            vals[i] *= factors[self.col_idx[i] as usize];
        }
        out
    }

    /// Applies `f` to every stored value, keeping the structure.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values.to_mut() {
            *v = f(*v);
        }
        out
    }

    /// Sparse-sparse product `A * B` (sorted-merge accumulation per row).
    ///
    /// Thread count is resolved automatically; use
    /// [`CsrMatrix::mul_with_threads`] to pin it. Row-parallel with the same
    /// per-row accumulation order, so results are bit-identical for any
    /// thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn mul(&self, other: &CsrMatrix) -> CsrMatrix {
        self.mul_with_threads(other, 0)
    }

    /// [`CsrMatrix::mul`] with an explicit thread count (`0` = auto).
    pub fn mul_with_threads(&self, other: &CsrMatrix, threads: usize) -> CsrMatrix {
        assert_eq!(self.cols, other.rows, "mul: inner dimension mismatch");
        let threads = effective_threads(threads, self.nnz() + other.nnz(), MIN_NNZ_PER_THREAD);
        let spans = split_even(self.rows, threads);
        // One thread per span, each with its own dense accumulator (fine for
        // the matrix sizes of the compact representation — a few thousand
        // columns), producing its rows as (cols, values) runs in row order.
        let parts: Vec<(Vec<u32>, Vec<f64>, Vec<usize>)> =
            map_indexed(spans.len(), spans.len(), |t| {
                let (r0, r1) = spans[t];
                let mut acc = vec![0.0; other.cols];
                let mut touched: Vec<usize> = Vec::new();
                let mut out_cols: Vec<u32> = Vec::new();
                let mut out_vals: Vec<f64> = Vec::new();
                let mut row_lens: Vec<usize> = Vec::with_capacity(r1 - r0);
                for r in r0..r1 {
                    let (cols, vals) = self.row(r);
                    for (&k, &v) in cols.iter().zip(vals) {
                        let (bcols, bvals) = other.row(k as usize);
                        for (&c, &bv) in bcols.iter().zip(bvals) {
                            let c = c as usize;
                            if acc[c] == 0.0 {
                                touched.push(c);
                            }
                            acc[c] += v * bv;
                        }
                    }
                    touched.sort_unstable();
                    let before = out_cols.len();
                    for &c in &touched {
                        if acc[c] != 0.0 {
                            out_cols.push(c as u32);
                            out_vals.push(acc[c]);
                        }
                        acc[c] = 0.0;
                    }
                    row_lens.push(out_cols.len() - before);
                    touched.clear();
                }
                (out_cols, out_vals, row_lens)
            });
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for (cols, vals, row_lens) in parts {
            for len in row_lens {
                row_ptr.push(row_ptr.last().unwrap() + len);
            }
            col_idx.extend_from_slice(&cols);
            values.extend_from_slice(&vals);
        }
        let m = CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants());
        m
    }

    /// The listed rows, in the listed order, as a new matrix with the same
    /// column space: output row `i` is a verbatim copy of row `rows[i]`.
    ///
    /// # Panics
    /// Panics if a listed row is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let nnz: usize = rows
            .iter()
            .map(|&r| self.row_ptr[r + 1] - self.row_ptr[r])
            .sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (cols, vals) = self.row(r);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        let m = CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants());
        m
    }

    /// Linear-time merge of sparse count updates into a (possibly grown)
    /// copy — the incremental substitute for re-running a [`CooBuilder`]
    /// over a whole log.
    ///
    /// * `additions` — `(row, col, v)` cell increments, sorted by
    ///   `(row, col)` with unique coordinates; merged as `old + v` (new
    ///   cells are inserted).
    /// * `replacements` — whole rows to overwrite, sorted by row with
    ///   strictly increasing columns; a replaced row ignores both the old
    ///   row and any additions (callers keep the two sets disjoint).
    ///
    /// Rows `>= self.rows` / columns `>= self.cols` extend the shape; every
    /// untouched row's `(col, value)` slice is copied verbatim, so its bits
    /// are exactly the old ones.
    ///
    /// # Panics
    /// Panics if the new shape shrinks or an update lands out of bounds.
    pub fn merge_grown(
        &self,
        new_rows: usize,
        new_cols: usize,
        additions: &[(u32, u32, f64)],
        replacements: &[(u32, Vec<(u32, f64)>)],
    ) -> CsrMatrix {
        assert!(
            new_rows >= self.rows && new_cols >= self.cols,
            "merge_grown: shape cannot shrink"
        );
        debug_assert!(additions
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(replacements.windows(2).all(|w| w[0].0 < w[1].0));
        let mut row_ptr = Vec::with_capacity(new_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + additions.len());
        let mut values = Vec::with_capacity(self.values.len() + additions.len());
        let (mut ai, mut ri) = (0usize, 0usize);
        for r in 0..new_rows {
            if ri < replacements.len() && replacements[ri].0 as usize == r {
                for &(c, v) in &replacements[ri].1 {
                    assert!((c as usize) < new_cols, "merge_grown: column out of bounds");
                    col_idx.push(c);
                    values.push(v);
                }
                ri += 1;
                // Additions for a replaced row would be silently lost.
                debug_assert!(!(ai < additions.len() && additions[ai].0 as usize == r));
            } else {
                let (oc, ov) = if r < self.rows {
                    self.row(r)
                } else {
                    (&[][..], &[][..])
                };
                let mut i = 0usize;
                while i < oc.len() || (ai < additions.len() && additions[ai].0 as usize == r) {
                    let add_here = ai < additions.len() && additions[ai].0 as usize == r;
                    if add_here && (i >= oc.len() || additions[ai].1 <= oc[i]) {
                        let (_, c, v) = additions[ai];
                        assert!((c as usize) < new_cols, "merge_grown: column out of bounds");
                        if i < oc.len() && c == oc[i] {
                            col_idx.push(c);
                            values.push(ov[i] + v);
                            i += 1;
                        } else {
                            col_idx.push(c);
                            values.push(v);
                        }
                        ai += 1;
                    } else {
                        col_idx.push(oc[i]);
                        values.push(ov[i]);
                        i += 1;
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        assert!(
            ai == additions.len() && ri == replacements.len(),
            "merge_grown: update row out of bounds"
        );
        let m = CsrMatrix {
            rows: new_rows,
            cols: new_cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants());
        m
    }

    /// Row-scoped column scaling — the incremental counterpart of
    /// [`CsrMatrix::scale_cols`]. Rows flagged in `scope` are scaled from
    /// `self`'s values exactly like `scale_cols` would (`v *= factors[c]`,
    /// same operation, same bits); every other row takes its value slice
    /// verbatim from `keep`, which must hold the previously scaled copy
    /// with identical structure in those rows (`keep` may have fewer
    /// rows/columns than `self` — out-of-scope rows must then lie inside
    /// `keep`'s shape).
    ///
    /// # Panics
    /// Panics if `scope`/`factors` lengths mismatch or an unscoped row's
    /// structure differs between `self` and `keep`.
    pub fn scale_cols_scoped(
        &self,
        factors: &[f64],
        scope: &[bool],
        keep: &CsrMatrix,
    ) -> CsrMatrix {
        assert_eq!(factors.len(), self.cols, "scale_cols_scoped: factor length");
        assert_eq!(scope.len(), self.rows, "scale_cols_scoped: scope length");
        let mut out = self.clone();
        let vals = out.values.to_mut();
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if scope[r] {
                for i in start..end {
                    vals[i] *= factors[self.col_idx[i] as usize];
                }
            } else {
                let (kc, kv) = keep.row(r);
                assert_eq!(
                    kc,
                    &self.col_idx[start..end],
                    "scale_cols_scoped: unscoped row {r} changed structure"
                );
                vals[start..end].copy_from_slice(kv);
            }
        }
        out
    }

    /// The main diagonal (only meaningful for square matrices but defined
    /// for any shape as `A[i,i]` for `i < min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Continues one row's `Σ v·x[c]` over `cols`/`vals` in order from `acc`.
#[inline]
fn row_dot(cols: &[u32], vals: &[f64], x: &[f64], mut acc: f64) -> f64 {
    for (&c, &v) in cols.iter().zip(vals) {
        acc += v * x[c as usize];
    }
    acc
}

/// Coordinate-format accumulator that deduplicates (summing duplicates) and
/// produces a canonical [`CsrMatrix`].
#[derive(Clone, Debug)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// An empty builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Records `A[r, c] += v`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "CooBuilder: out of bounds");
        self.entries.push((r as u32, c as u32, v));
    }

    /// Number of raw (possibly duplicate) entries recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts, merges duplicates and freezes into CSR. Entries that cancel to
    /// exactly 0.0 are still stored (callers that care can `map_values`).
    pub fn build(mut self) -> CsrMatrix {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<u32> = merged.iter().map(|&(_, c, _)| c).collect();
        let values: Vec<f64> = merged.iter().map(|&(_, _, v)| v).collect();
        let m = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants());
        m
    }
}

impl CsrMatrix {
    /// Validates the CSR invariants; used by `debug_assert!` after builds.
    pub fn check_invariants(&self) -> bool {
        if self.row_ptr.len() != self.rows + 1 || self.row_ptr[0] != 0 {
            return false;
        }
        if *self.row_ptr.last().unwrap() != self.values.len()
            || self.col_idx.len() != self.values.len()
        {
            return false;
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return false;
            }
            let (cols, _) = self.row(r);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return false;
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= self.cols {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert!(m.check_invariants());
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.5);
        b.push(0, 1, 2.5);
        b.push(1, 0, 1.0);
        let m = b.build();
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.nnz(), 2);
        assert!(m.check_invariants());
    }

    #[test]
    fn unsorted_pushes_are_canonicalized() {
        let mut b = CooBuilder::new(2, 3);
        b.push(1, 2, 1.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 3.0);
        b.push(0, 0, 4.0);
        let m = b.build();
        assert!(m.check_invariants());
        assert_eq!(m.row(0).0, &[0, 1]);
        assert_eq!(m.row(1).0, &[0, 2]);
    }

    #[test]
    fn matvec() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let t = m.transpose();
        assert_eq!(m.mul_vec_transposed(&x), t.mul_vec(&x));
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn identity_is_neutral_for_matvec() {
        let id = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 0.5, 9.0];
        assert_eq!(id.mul_vec(&x), x);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn row_normalized_is_stochastic() {
        let m = sample().row_normalized();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert_eq!(sums[1], 0.0); // empty row stays empty
        assert!((sums[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_rows_and_cols() {
        let m = sample();
        let r = m.scale_rows(&[2.0, 1.0, 0.5]);
        assert_eq!(r.get(0, 2), 4.0);
        assert_eq!(r.get(2, 1), 2.0);
        let c = m.scale_cols(&[0.0, 1.0, 10.0]);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 2), 20.0);
        assert_eq!(c.get(2, 1), 4.0);
    }

    #[test]
    fn sparse_product_matches_dense() {
        let a = sample();
        let b = sample().transpose();
        let p = a.mul(&b);
        // Dense check.
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                assert!((p.get(i, j) - acc).abs() < 1e-12, "({i},{j})");
            }
        }
        assert!(p.check_invariants());
    }

    #[test]
    fn select_rows_copies_rows_in_listed_order() {
        let m = sample();
        let s = m.select_rows(&[2, 1, 0, 2]);
        assert_eq!((s.rows(), s.cols()), (4, 3));
        for (i, &r) in [2usize, 1, 0, 2].iter().enumerate() {
            assert_eq!(s.row(i), m.row(r), "row {i}");
        }
        assert_eq!(m.select_rows(&[]).nnz(), 0);
    }

    #[test]
    fn diagonal_and_frobenius() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![1.0, 0.0, 0.0]);
        let f = m.frobenius_norm();
        assert!((f - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn from_diagonal_shape() {
        let d = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.mul_vec(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zeros_behaves() {
        let z = CsrMatrix::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.mul_vec(&[1.0; 5]), vec![0.0, 0.0]);
        assert!(z.check_invariants());
    }

    #[test]
    fn map_values_preserves_structure() {
        let m = sample().map_values(|v| v * v);
        assert_eq!(m.get(2, 1), 16.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn merge_grown_matches_a_cold_coo_rebuild() {
        // Base counts, then a batch of increments + one replaced row + a
        // grown shape: the merged result must equal building everything
        // from scratch.
        let mut base = CooBuilder::new(3, 3);
        base.push(0, 0, 2.0);
        base.push(0, 2, 1.0);
        base.push(2, 1, 4.0);
        let old = base.build();
        let additions = vec![(0u32, 1u32, 3.0), (0, 2, 1.0), (3, 0, 5.0)];
        let replacements = vec![(2u32, vec![(1u32, 6.0), (3u32, 7.0)])];
        let merged = old.merge_grown(4, 4, &additions, &replacements);
        assert!(merged.check_invariants());

        let mut cold = CooBuilder::new(4, 4);
        cold.push(0, 0, 2.0);
        cold.push(0, 2, 1.0);
        cold.push(0, 1, 3.0);
        cold.push(0, 2, 1.0);
        cold.push(2, 1, 6.0);
        cold.push(2, 3, 7.0);
        cold.push(3, 0, 5.0);
        assert_eq!(merged, cold.build());
        // Untouched row 1 (empty) stays empty.
        assert_eq!(merged.row(1).0.len(), 0);
    }

    #[test]
    fn merge_grown_with_no_updates_is_a_grown_copy() {
        let m = sample();
        let grown = m.merge_grown(m.rows() + 2, m.cols() + 1, &[], &[]);
        for r in 0..m.rows() {
            assert_eq!(grown.row(r), m.row(r));
        }
        assert_eq!(grown.nnz(), m.nnz());
    }

    #[test]
    #[should_panic(expected = "shape cannot shrink")]
    fn merge_grown_rejects_shrinking() {
        sample().merge_grown(1, 1, &[], &[]);
    }

    #[test]
    fn scale_cols_scoped_matches_full_scale() {
        let m = sample();
        let factors: Vec<f64> = (0..m.cols()).map(|c| 0.5 + c as f64).collect();
        let full = m.scale_cols(&factors);
        // Scaling every row reproduces scale_cols bit for bit.
        let all = vec![true; m.rows()];
        assert_eq!(m.scale_cols_scoped(&factors, &all, &full), full);
        // Scoping only some rows and keeping the rest from the previous
        // scaled copy also reproduces it.
        let mut scope = vec![false; m.rows()];
        scope[0] = true;
        assert_eq!(m.scale_cols_scoped(&factors, &scope, &full), full);
    }
}
