//! Dense row-major `f32` matrices and the vector kernels used by every
//! layer in this crate.
//!
//! The networks in this workspace are small (tens of thousands of
//! parameters), so a straightforward cache-friendly implementation over
//! `Vec<f32>` outperforms anything fancier at these sizes and keeps the
//! backward passes auditable.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
///
/// Rows are stored contiguously: element `(r, c)` lives at `r * cols + c`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `out = self · x` (matrix–vector product).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols, "matvec input length");
        debug_assert_eq!(out.len(), self.rows, "matvec output length");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o = dot(row, x);
        }
    }

    /// `out += self · x` (accumulating matrix–vector product).
    pub fn matvec_add(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols, "matvec_add input length");
        debug_assert_eq!(out.len(), self.rows, "matvec_add output length");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o += dot(row, x);
        }
    }

    /// `out += selfᵀ · x` (transposed matrix–vector product, accumulating).
    ///
    /// Used in backward passes to push gradients through a linear map.
    pub fn matvec_t_add(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.rows, "matvec_t_add input length");
        debug_assert_eq!(out.len(), self.cols, "matvec_t_add output length");
        for (xi, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
            if *xi != 0.0 {
                axpy(*xi, row, out);
            }
        }
    }

    /// Rank-1 update: `self += a ⊗ b` (outer product accumulate).
    ///
    /// Used to accumulate weight gradients: `dW += dz ⊗ x`.
    pub fn outer_add(&mut self, a: &[f32], b: &[f32]) {
        debug_assert_eq!(a.len(), self.rows, "outer_add lhs length");
        debug_assert_eq!(b.len(), self.cols, "outer_add rhs length");
        outer_add_rows(&mut self.data, 0, a, b);
    }

    /// Adds another matrix element-wise.
    ///
    /// # Panics
    ///
    /// Panics (debug) on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        debug_assert_eq!(self.rows, other.rows);
        debug_assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm (root of sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// The rank-1 update `W += a ⊗ b` on a band of `W`'s rows: `rows`
/// holds rows `first..` of `W` row-major (`b.len()` wide), and row
/// `first + r` gains `a[first + r] · b`, skipped when that coefficient
/// is zero. A row's arithmetic does not depend on the band it sits in,
/// so splitting `W`'s rows across threads changes no bit.
fn outer_add_rows(rows: &mut [f32], first: usize, a: &[f32], b: &[f32]) {
    for (ai, row) in a[first..].iter().zip(rows.chunks_exact_mut(b.len())) {
        if *ai != 0.0 {
            axpy(*ai, b, row);
        }
    }
}

/// A band of one layer's parameter gradient: rows `first..first + n` of
/// the weight gradient (row-major, `cols` wide) and the matching `n`
/// bias entries. Bands of one gradient are disjoint, so threads can
/// fill them at the same time; training splits every layer's rows this
/// way to replay its parameter updates in parallel.
#[derive(Debug)]
pub(crate) struct GradRows<'g> {
    first: usize,
    cols: usize,
    w: &'g mut [f32],
    b: &'g mut [f32],
}

impl<'g> GradRows<'g> {
    /// Every row of the weight gradient `w` and its bias `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not hold one entry per row of `w`.
    pub(crate) fn new(w: &'g mut Matrix, b: &'g mut [f32]) -> Self {
        assert_eq!(w.rows(), b.len(), "one bias entry per weight row");
        GradRows {
            first: 0,
            cols: w.cols(),
            w: w.as_mut_slice(),
            b,
        }
    }

    /// Splits the band into `parts` contiguous bands of at most
    /// `⌈n / parts⌉` rows each, in row order (`parts = 0` counts as 1).
    /// Trailing bands are empty when the band has fewer rows than
    /// `parts`.
    pub(crate) fn split(self, parts: usize) -> Vec<GradRows<'g>> {
        let parts = parts.max(1);
        let per = self.b.len().div_ceil(parts);
        let GradRows {
            mut first,
            cols,
            mut w,
            mut b,
        } = self;
        (0..parts)
            .map(|_| {
                let n = per.min(b.len());
                let (w_band, w_rest) = std::mem::take(&mut w).split_at_mut(n * cols);
                let (b_band, b_rest) = std::mem::take(&mut b).split_at_mut(n);
                let band = GradRows {
                    first,
                    cols,
                    w: w_band,
                    b: b_band,
                };
                (first, w, b) = (first + n, w_rest, b_rest);
                band
            })
            .collect()
    }

    /// Adds one backward step's parameter gradient to the band's rows:
    /// weight row `r` gains `dz[r] · x` (skipped when `dz[r]` is zero)
    /// and bias `r` gains `dz[r]`, where `dz` spans every row of the
    /// layer. Over all bands this is a dense backward's
    /// `dW += dz ⊗ x; db += dz`, bit for bit.
    pub(crate) fn add_outer(&mut self, dz: &[f32], x: &[f32]) {
        debug_assert_eq!(x.len(), self.cols, "add_outer input length");
        outer_add_rows(self.w, self.first, dz, x);
        add_assign_slice(self.b, &dz[self.first..self.first + self.b.len()]);
    }
}

/// A borrowed view of contiguous row-major vectors: row `i` occupies
/// `data[i * dim..(i + 1) * dim]`.
///
/// This is the interchange type between the batched embedding engine,
/// the reference store and the index backends: moving a batch of
/// vectors between layers never copies through `Vec<Vec<f32>>`.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    dim: usize,
    data: &'a [f32],
}

impl<'a> Rows<'a> {
    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` (with `dim == 0`
    /// only an empty buffer is valid).
    pub fn new(dim: usize, data: &'a [f32]) -> Self {
        if dim == 0 {
            assert!(data.is_empty(), "dim 0 admits only an empty buffer");
        } else {
            assert_eq!(data.len() % dim, 0, "buffer length not a row multiple");
        }
        Rows { dim, data }
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Copies every row into its own `Vec` (bridge to `Vec<Vec<f32>>`
    /// consumers).
    pub fn to_vecs(&self) -> Vec<Vec<f32>> {
        self.iter().map(<[f32]>::to_vec).collect()
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics (debug) if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length");
    // Chunked accumulation: faster and more numerically stable than a
    // naive single accumulator.
    let mut acc = [0.0f32; 4];
    let mut ai = a.chunks_exact(4);
    let mut bi = b.chunks_exact(4);
    for (ca, cb) in ai.by_ref().zip(bi.by_ref()) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let tail: f32 = ai
        .remainder()
        .iter()
        .zip(bi.remainder())
        .map(|(x, y)| x * y)
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics (debug) if lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += a0·x0 + a1·x1 + a2·x2 + a3·x3`, evaluated per element strictly
/// left to right.
///
/// The unrolled inner step of [`matmul_t`]: four rank-1 accumulations
/// per load/store of `y`, with a fixed accumulation order so results
/// never depend on batch composition or thread count.
#[inline]
pub fn axpy4(a: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32], y: &mut [f32]) {
    debug_assert!(x0.len() == y.len() && x1.len() == y.len());
    debug_assert!(x2.len() == y.len() && x3.len() == y.len());
    for (j, yj) in y.iter_mut().enumerate() {
        *yj = (((*yj + a[0] * x0[j]) + a[1] * x1[j]) + a[2] * x2[j]) + a[3] * x3[j];
    }
}

/// Batched linear map through a **transposed** weight buffer:
/// `out[i] = wt ᵀ · x[i] + bias` for every row `i` of `x`.
///
/// `wt` holds `Wᵀ` row-major (`in_dim × out_dim`, i.e. row `k` is the
/// k-th input's weights across all outputs), so the inner loop streams
/// contiguous `out_dim`-wide rows — the cache/SIMD-friendly layout a
/// matrix–matrix product wants. Each output row starts from `bias` and
/// accumulates `x[i][k] · wt[k]` in ascending `k`, four `k` at a time
/// ([`axpy4`]); the per-element order is fixed, so results are
/// bit-identical for every batch size and thread count.
///
/// # Panics
///
/// Panics (debug) on shape mismatch.
pub fn matmul_t(x: &[f32], in_dim: usize, wt: &[f32], bias: &[f32], out: &mut [f32]) {
    let out_dim = bias.len();
    let n = x.len().checked_div(in_dim).unwrap_or(0);
    debug_assert_eq!(x.len(), n * in_dim, "matmul_t input shape");
    debug_assert_eq!(wt.len(), in_dim * out_dim, "matmul_t weight shape");
    debug_assert_eq!(out.len(), n * out_dim, "matmul_t output shape");
    // Blocks of four batch rows share each streamed weight row (4x less
    // weight traffic, 16 independent accumulator chains per pass);
    // per-row accumulation order is identical to the single-row tail
    // path, so results never depend on where block boundaries fall.
    let mut i = 0;
    while i + 4 <= n {
        let x0 = &x[i * in_dim..(i + 1) * in_dim];
        let x1 = &x[(i + 1) * in_dim..(i + 2) * in_dim];
        let x2 = &x[(i + 2) * in_dim..(i + 3) * in_dim];
        let x3 = &x[(i + 3) * in_dim..(i + 4) * in_dim];
        let (o0, rest) = out[i * out_dim..(i + 4) * out_dim].split_at_mut(out_dim);
        let (o1, rest) = rest.split_at_mut(out_dim);
        let (o2, o3) = rest.split_at_mut(out_dim);
        o0.copy_from_slice(bias);
        o1.copy_from_slice(bias);
        o2.copy_from_slice(bias);
        o3.copy_from_slice(bias);
        let mut k = 0;
        while k + 4 <= in_dim {
            let w0 = &wt[k * out_dim..(k + 1) * out_dim];
            let w1 = &wt[(k + 1) * out_dim..(k + 2) * out_dim];
            let w2 = &wt[(k + 2) * out_dim..(k + 3) * out_dim];
            let w3 = &wt[(k + 3) * out_dim..(k + 4) * out_dim];
            let (a0, a1) = (&x0[k..k + 4], &x1[k..k + 4]);
            let (a2, a3) = (&x2[k..k + 4], &x3[k..k + 4]);
            // One fused sweep: each weight load feeds all four rows.
            for j in 0..out_dim {
                let (v0, v1, v2, v3) = (w0[j], w1[j], w2[j], w3[j]);
                o0[j] = (((o0[j] + a0[0] * v0) + a0[1] * v1) + a0[2] * v2) + a0[3] * v3;
                o1[j] = (((o1[j] + a1[0] * v0) + a1[1] * v1) + a1[2] * v2) + a1[3] * v3;
                o2[j] = (((o2[j] + a2[0] * v0) + a2[1] * v1) + a2[2] * v2) + a2[3] * v3;
                o3[j] = (((o3[j] + a3[0] * v0) + a3[1] * v1) + a3[2] * v2) + a3[3] * v3;
            }
            k += 4;
        }
        for kk in k..in_dim {
            let w = &wt[kk * out_dim..(kk + 1) * out_dim];
            axpy(x0[kk], w, o0);
            axpy(x1[kk], w, o1);
            axpy(x2[kk], w, o2);
            axpy(x3[kk], w, o3);
        }
        i += 4;
    }
    for (xi, oi) in x[i * in_dim..]
        .chunks_exact(in_dim)
        .zip(out[i * out_dim..].chunks_exact_mut(out_dim))
    {
        oi.copy_from_slice(bias);
        let mut k = 0;
        while k + 4 <= in_dim {
            axpy4(
                [xi[k], xi[k + 1], xi[k + 2], xi[k + 3]],
                &wt[k * out_dim..(k + 1) * out_dim],
                &wt[(k + 1) * out_dim..(k + 2) * out_dim],
                &wt[(k + 2) * out_dim..(k + 3) * out_dim],
                &wt[(k + 3) * out_dim..(k + 4) * out_dim],
                oi,
            );
            k += 4;
        }
        for kk in k..in_dim {
            axpy(xi[kk], &wt[kk * out_dim..(kk + 1) * out_dim], oi);
        }
    }
}

/// Transposes a row-major `rows × cols` buffer into `out` (`cols × rows`).
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(src.len(), rows * cols, "transpose_into shape");
    out.clear();
    out.resize(rows * cols, 0.0);
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Element-wise addition: `y += x`.
#[inline]
pub fn add_assign_slice(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len(), "add_assign_slice length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale_slice(y: &mut [f32], s: f32) {
    for v in y {
        *v *= s;
    }
}

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "euclidean_sq length");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    euclidean_sq(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_hand_computation() {
        // [1 2; 3 4; 5 6] · [1, -1] = [-1, -1, -1]
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 3];
        m.matvec(&[1.0, -1.0], &mut out);
        assert_eq!(out, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_t_is_transpose_of_matvec() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // mᵀ · [1, 1] = [5, 7, 9]
        let mut out = vec![0.0; 3];
        m.matvec_t_add(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn grad_row_bands_sum_like_one_outer_product() {
        let dz = [0.5f32, 0.0, -1.25, 3.0, 0.75];
        let x = [1.5f32, -0.25, 2.0];
        let start: Vec<f32> = (0..15).map(|i| i as f32 * 0.1 - 0.7).collect();
        let mut want_w = Matrix::from_vec(5, 3, start.clone());
        let mut want_b = vec![-0.0f32, 1.0, 2.0, 3.0, 4.0];
        want_w.outer_add(&dz, &x);
        add_assign_slice(&mut want_b, &dz);
        for parts in [1usize, 2, 3, 7] {
            let mut w = Matrix::from_vec(5, 3, start.clone());
            let mut b = vec![-0.0f32, 1.0, 2.0, 3.0, 4.0];
            let mut bands = GradRows::new(&mut w, &mut b).split(parts);
            assert_eq!(bands.len(), parts);
            for band in &mut bands {
                band.add_outer(&dz, &x);
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(w.as_slice()), bits(want_w.as_slice()), "{parts} parts");
            assert_eq!(bits(&b), bits(&want_b), "{parts} parts");
        }
    }

    #[test]
    fn outer_add_accumulates_rank_one() {
        let mut m = Matrix::zeros(2, 2);
        m.outer_add(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
        m.outer_add(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(m.as_slice(), &[4.0, 5.0, 6.0, 8.0]);
    }

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = [1.0; 7];
        assert_eq!(dot(&a, &b), 28.0);
    }

    #[test]
    fn euclidean_distance_basic() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn row_accessors_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.get(1, 2), 9.0);
    }

    #[test]
    #[should_panic(expected = "matrix buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn scale_and_zero() {
        let mut m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        m.scale(2.0);
        assert_eq!(m.as_slice(), &[2.0, 4.0, 6.0]);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(m.frobenius_norm(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn rows_view_shape_and_iteration() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = Rows::new(2, &data);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.dim(), 2);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
        assert_eq!(rows.to_vecs()[2], vec![5.0, 6.0]);
        assert!(Rows::new(4, &[]).is_empty());
        assert_eq!(Rows::new(0, &[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "row multiple")]
    fn rows_view_rejects_ragged_buffer() {
        let _ = Rows::new(4, &[1.0, 2.0, 3.0]);
    }

    /// The k-ascending reference accumulation `matmul_t` must reproduce
    /// exactly: `out = bias; for k { out += x[k] * wt[k] }`.
    fn matmul_t_reference(x: &[f32], in_dim: usize, wt: &[f32], bias: &[f32], out: &mut [f32]) {
        let out_dim = bias.len();
        for (xi, oi) in x.chunks_exact(in_dim).zip(out.chunks_exact_mut(out_dim)) {
            oi.copy_from_slice(bias);
            for (k, &xk) in xi.iter().enumerate() {
                axpy(xk, &wt[k * out_dim..(k + 1) * out_dim], oi);
            }
        }
    }

    #[test]
    fn matmul_t_is_bit_identical_to_k_ascending_accumulation() {
        // Odd in_dim exercises the unroll remainder; several batch
        // sizes prove per-row independence.
        for (n, in_dim, out_dim) in [(1usize, 7usize, 5usize), (3, 9, 4), (8, 4, 6), (5, 3, 2)] {
            let x: Vec<f32> = (0..n * in_dim)
                .map(|i| ((i * 31 % 17) as f32) * 0.13 - 1.0)
                .collect();
            let wt: Vec<f32> = (0..in_dim * out_dim)
                .map(|i| ((i * 13 % 23) as f32) * 0.07 - 0.7)
                .collect();
            let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.11 - 0.2).collect();
            let mut fast = vec![0.0f32; n * out_dim];
            let mut slow = vec![0.0f32; n * out_dim];
            matmul_t(&x, in_dim, &wt, &bias, &mut fast);
            matmul_t_reference(&x, in_dim, &wt, &bias, &mut slow);
            assert_eq!(fast, slow, "n={n} in={in_dim} out={out_dim}");
            // Batch rows are independent: row i equals a batch-of-one run.
            for i in 0..n {
                let mut one = vec![0.0f32; out_dim];
                matmul_t(
                    &x[i * in_dim..(i + 1) * in_dim],
                    in_dim,
                    &wt,
                    &bias,
                    &mut one,
                );
                assert_eq!(&fast[i * out_dim..(i + 1) * out_dim], one.as_slice());
            }
        }
    }

    #[test]
    fn matmul_t_agrees_with_matvec_numerically() {
        let m = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let mut wt = Vec::new();
        transpose_into(m.as_slice(), 3, 4, &mut wt);
        let x = [0.5f32, -1.0, 0.25, 2.0];
        let bias = [0.1f32, -0.1, 0.0];
        let mut batched = vec![0.0f32; 3];
        matmul_t(&x, 4, &wt, &bias, &mut batched);
        let mut direct = vec![0.0f32; 3];
        m.matvec(&x, &mut direct);
        add_assign_slice(&mut direct, &bias);
        for (a, b) in batched.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let src: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let mut t = Vec::new();
        transpose_into(&src, 2, 3, &mut t);
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let mut back = Vec::new();
        transpose_into(&t, 3, 2, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn axpy4_fixed_order() {
        let mut y = vec![1.0f32; 3];
        let x = [1.0f32, 2.0, 3.0];
        axpy4([1.0, 2.0, 3.0, 4.0], &x, &x, &x, &x, &mut y);
        // 1 + (1+2+3+4)*x
        assert_eq!(y, vec![11.0, 21.0, 31.0]);
    }
}
