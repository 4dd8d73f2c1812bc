//! Dense row-major `f32` matrices with the handful of BLAS-like kernels the
//! autograd tape needs.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major data; `data[r * cols + c]`.
    pub data: Vec<f32>,
}

/// Run kernel `$name` from [`avx2`] when the host has AVX2, else the
/// portable body of the same name from [`kernels`].
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the `avx2` builds require AVX2 and nothing else, and
            // the host was just found to have it.
            unsafe { avx2::$name($($arg),*) }
        } else {
            kernels::$name($($arg),*)
        }
    };
}

/// Without x86 there is no AVX2 build: always the portable body.
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        kernels::$name($($arg),*)
    };
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a nested-slice literal (tests / small constants).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat vec.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// A 1×1 matrix.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self @ other` without allocating. `out` is overwritten.
    ///
    /// Register-blocked kernel: two rows of `self` advance together, sharing
    /// every loaded row of `other`, with a 4-way unrolled `k` inner kernel
    /// and slice-based addressing (no per-element bounds checks, no
    /// data-dependent branches). The per-element accumulation order — `k` in
    /// groups of four, remainder singly — is a function of `k` alone, never
    /// of the row count or a row's position in the blocking, so stacking
    /// extra rows onto a batch cannot change any existing row's result bit
    /// pattern — the property the batched inference path relies on.
    ///
    /// **Dispatch.** This kernel, [`Matrix::matmul_acc_into`] and
    /// [`Matrix::matmul_nt`] check once per call whether the host has AVX2
    /// and, if so, run the same body compiled with AVX2 enabled (8-wide
    /// instead of 4-wide vectors); elsewhere they run the portable build.
    /// Only `avx2` is enabled, never `fma`, and Rust does not contract
    /// `a * b + c` into a fused multiply-add, so both builds perform the same
    /// IEEE operations per element in the same order: every result is
    /// bit-identical on every path and every host.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        dispatch!(matmul_into(self, other, out))
    }

    /// `out += self @ other` — the accumulate variant of
    /// [`Matrix::matmul_into`], with the same dispatch. Pre-filling `out`
    /// with a broadcast bias row turns this into a fused linear layer with
    /// one pass over the data.
    pub fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        dispatch!(matmul_acc_into(self, other, out))
    }

    /// `self @ other^T`: element `(i, j)` is exactly [`dot`]`(self.row(i),
    /// other.row(j))`, bit for bit. Used by the matmul backward pass
    /// (`g · Wᵀ`).
    ///
    /// Computed in axpy form over the transposed right operand, with the
    /// same dispatch as [`Matrix::matmul_into`]: `dot`'s four lane
    /// accumulators become four accumulator rows, 16 output columns wide,
    /// that advance together through `k`, and the `k % 4` remainder is
    /// added after the lanes are combined, as in `dot`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt width mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        dispatch!(matmul_nt(self, other, &mut out));
        out
    }

    /// Transpose (tiled so both matrices are walked in cache-line chunks).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        const TB: usize = 16;
        let mut r0 = 0;
        while r0 < self.rows {
            let r1 = (r0 + TB).min(self.rows);
            let mut c0 = 0;
            while c0 < self.cols {
                let c1 = (c0 + TB).min(self.cols);
                for r in r0..r1 {
                    let row = &self.data[r * self.cols + c0..r * self.cols + c1];
                    for (c, &v) in row.iter().enumerate() {
                        out.data[(c0 + c) * self.rows + r] = v;
                    }
                }
                c0 = c1;
            }
            r0 = r1;
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination; shapes must match.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Row-wise softmax (numerically stabilised).
    ///
    /// Entries further than 105 below the row maximum skip the `exp` call:
    /// `exp(x)` underflows to exactly `+0.0` for `x ≤ -105`, so the shortcut
    /// is bit-identical while sparing attention rows full of `-1e9` mask
    /// values the cost of a libm call per masked entry.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (v, &s) in row.iter_mut().zip(src) {
                let x = s - max;
                *v = if x <= -105.0 { 0.0 } else { x.exp() };
                sum += *v;
            }
            // One reciprocal per row: hardware division is the single most
            // expensive scalar op in the masked-attention softmax.
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }

    /// Row-wise log-softmax (numerically stabilised).
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let logsum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= logsum;
            }
        }
        out
    }
}

/// The portable kernel bodies. `#[inline(always)]` so each is compiled
/// twice: into its caller here, for the target's baseline features, and into
/// its [`avx2`] wrapper, with AVX2 enabled.
mod kernels {
    use super::Matrix;

    /// Body of [`Matrix::matmul_into`] (shapes already checked).
    #[inline(always)]
    pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        if a.cols == 0 {
            out.data.fill(0.0);
            return;
        }
        // Initialise each output row by *assigning* the first k-group's
        // contribution instead of zero-filling and accumulating — one whole
        // pass over `out` saved. `0.0 + x == x` for every finite x except
        // that `-0.0` would become `+0.0`, and `-0.0 == 0.0` anyway, so the
        // k-grouping (and with it every accumulation-order guarantee) is
        // unchanged from [`Matrix::matmul_acc_into`].
        let n = b.cols;
        let kd = a.cols;
        let bd = &b.data;
        let mut i = 0;
        while i + 2 <= a.rows {
            let (o0, o1) = out.data[i * n..(i + 2) * n].split_at_mut(n);
            let ar0 = &a.data[i * kd..(i + 1) * kd];
            let ar1 = &a.data[(i + 1) * kd..(i + 2) * kd];
            let mut k = if kd >= 4 {
                let (x00, x01, x02, x03) = (ar0[0], ar0[1], ar0[2], ar0[3]);
                let (x10, x11, x12, x13) = (ar1[0], ar1[1], ar1[2], ar1[3]);
                let b0 = &bd[..n];
                let b1 = &bd[n..2 * n];
                let b2 = &bd[2 * n..3 * n];
                let b3 = &bd[3 * n..4 * n];
                for j in 0..n {
                    o0[j] = x00 * b0[j] + x01 * b1[j] + x02 * b2[j] + x03 * b3[j];
                    o1[j] = x10 * b0[j] + x11 * b1[j] + x12 * b2[j] + x13 * b3[j];
                }
                4
            } else {
                let (x0, x1) = (ar0[0], ar1[0]);
                let brow = &bd[..n];
                for j in 0..n {
                    o0[j] = x0 * brow[j];
                    o1[j] = x1 * brow[j];
                }
                1
            };
            while k + 4 <= kd {
                let (x00, x01, x02, x03) = (ar0[k], ar0[k + 1], ar0[k + 2], ar0[k + 3]);
                let (x10, x11, x12, x13) = (ar1[k], ar1[k + 1], ar1[k + 2], ar1[k + 3]);
                let b0 = &bd[k * n..k * n + n];
                let b1 = &bd[(k + 1) * n..(k + 1) * n + n];
                let b2 = &bd[(k + 2) * n..(k + 2) * n + n];
                let b3 = &bd[(k + 3) * n..(k + 3) * n + n];
                for j in 0..n {
                    o0[j] += x00 * b0[j] + x01 * b1[j] + x02 * b2[j] + x03 * b3[j];
                    o1[j] += x10 * b0[j] + x11 * b1[j] + x12 * b2[j] + x13 * b3[j];
                }
                k += 4;
            }
            while k < kd {
                let (x0, x1) = (ar0[k], ar1[k]);
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    o0[j] += x0 * brow[j];
                    o1[j] += x1 * brow[j];
                }
                k += 1;
            }
            i += 2;
        }
        if i < a.rows {
            let orow = &mut out.data[i * n..(i + 1) * n];
            let arow = &a.data[i * kd..(i + 1) * kd];
            let mut k = if kd >= 4 {
                let (x0, x1, x2, x3) = (arow[0], arow[1], arow[2], arow[3]);
                let b0 = &bd[..n];
                let b1 = &bd[n..2 * n];
                let b2 = &bd[2 * n..3 * n];
                let b3 = &bd[3 * n..4 * n];
                for j in 0..n {
                    orow[j] = x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
                }
                4
            } else {
                let x = arow[0];
                let brow = &bd[..n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = x * bv;
                }
                1
            };
            while k + 4 <= kd {
                let (x0, x1, x2, x3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let b0 = &bd[k * n..k * n + n];
                let b1 = &bd[(k + 1) * n..(k + 1) * n + n];
                let b2 = &bd[(k + 2) * n..(k + 2) * n + n];
                let b3 = &bd[(k + 3) * n..(k + 3) * n + n];
                for j in 0..n {
                    orow[j] += x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
                }
                k += 4;
            }
            while k < kd {
                let x = arow[k];
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    orow[j] += x * brow[j];
                }
                k += 1;
            }
        }
    }

    /// Body of [`Matrix::matmul_acc_into`] (shapes already checked).
    #[inline(always)]
    pub(super) fn matmul_acc_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let n = b.cols;
        let kd = a.cols;
        let bd = &b.data;
        let mut i = 0;
        while i + 2 <= a.rows {
            let (o0, o1) = out.data[i * n..(i + 2) * n].split_at_mut(n);
            let ar0 = &a.data[i * kd..(i + 1) * kd];
            let ar1 = &a.data[(i + 1) * kd..(i + 2) * kd];
            let mut k = 0;
            while k + 4 <= kd {
                let (x00, x01, x02, x03) = (ar0[k], ar0[k + 1], ar0[k + 2], ar0[k + 3]);
                let (x10, x11, x12, x13) = (ar1[k], ar1[k + 1], ar1[k + 2], ar1[k + 3]);
                let b0 = &bd[k * n..k * n + n];
                let b1 = &bd[(k + 1) * n..(k + 1) * n + n];
                let b2 = &bd[(k + 2) * n..(k + 2) * n + n];
                let b3 = &bd[(k + 3) * n..(k + 3) * n + n];
                for j in 0..n {
                    o0[j] += x00 * b0[j] + x01 * b1[j] + x02 * b2[j] + x03 * b3[j];
                    o1[j] += x10 * b0[j] + x11 * b1[j] + x12 * b2[j] + x13 * b3[j];
                }
                k += 4;
            }
            while k < kd {
                let (x0, x1) = (ar0[k], ar1[k]);
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    o0[j] += x0 * brow[j];
                    o1[j] += x1 * brow[j];
                }
                k += 1;
            }
            i += 2;
        }
        if i < a.rows {
            // Last odd row: identical k-grouping to the paired path, so a
            // row's bit pattern does not depend on the matrix's row count.
            let orow = &mut out.data[i * n..(i + 1) * n];
            let arow = &a.data[i * kd..(i + 1) * kd];
            let mut k = 0;
            while k + 4 <= kd {
                let (x0, x1, x2, x3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let b0 = &bd[k * n..k * n + n];
                let b1 = &bd[(k + 1) * n..(k + 1) * n + n];
                let b2 = &bd[(k + 2) * n..(k + 2) * n + n];
                let b3 = &bd[(k + 3) * n..(k + 3) * n + n];
                for j in 0..n {
                    orow[j] += x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
                }
                k += 4;
            }
            while k < kd {
                let x = arow[k];
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    orow[j] += x * brow[j];
                }
                k += 1;
            }
        }
    }

    /// Output columns one [`matmul_nt`] panel covers: two AVX2 vectors,
    /// four SSE vectors.
    const NT_TILE: usize = 16;

    /// Body of [`Matrix::matmul_nt`] (widths already checked; `out` zeroed).
    ///
    /// `b` is first packed into panels of [`NT_TILE`] rows, each stored
    /// transposed (`kd × NT_TILE`, the last panel zero-padded), so the inner
    /// loop reads one contiguous panel row per `k`. Output column `j` keeps
    /// [`super::dot`]'s four lane sums in `s0[t]..s3[t]` and performs
    /// exactly `dot`'s operations in `dot`'s order: lane `l` accumulates the
    /// `k ≡ l (mod 4)` products from `0.0`, the lanes combine as
    /// `(s0 + s1) + (s2 + s3)`, then the `k % 4` remainder adds on singly.
    #[inline(always)]
    pub(super) fn matmul_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let (kd, n) = (a.cols, b.rows);
        if kd == 0 || n == 0 {
            return;
        }
        let mut panels = vec![0.0f32; n.div_ceil(NT_TILE) * kd * NT_TILE];
        for (j, brow) in b.data.chunks_exact(kd).enumerate() {
            let panel = &mut panels[(j / NT_TILE) * kd * NT_TILE..];
            for (k, &v) in brow.iter().enumerate() {
                panel[k * NT_TILE + j % NT_TILE] = v;
            }
        }
        let k4 = kd - kd % 4;
        for (arow, orow) in a.data.chunks_exact(kd).zip(out.data.chunks_exact_mut(n)) {
            let (x4, xr) = arow.split_at(k4);
            for (jb, panel) in panels.chunks_exact(kd * NT_TILE).enumerate() {
                let (p4, pr) = panel.split_at(k4 * NT_TILE);
                let mut s0 = [0.0f32; NT_TILE];
                let mut s1 = [0.0f32; NT_TILE];
                let mut s2 = [0.0f32; NT_TILE];
                let mut s3 = [0.0f32; NT_TILE];
                for (x, p) in x4.chunks_exact(4).zip(p4.chunks_exact(4 * NT_TILE)) {
                    let (p0, p1, p2, p3) = (
                        &p[..NT_TILE],
                        &p[NT_TILE..2 * NT_TILE],
                        &p[2 * NT_TILE..3 * NT_TILE],
                        &p[3 * NT_TILE..],
                    );
                    for t in 0..NT_TILE {
                        s0[t] += x[0] * p0[t];
                        s1[t] += x[1] * p1[t];
                        s2[t] += x[2] * p2[t];
                        s3[t] += x[3] * p3[t];
                    }
                }
                let mut s = [0.0f32; NT_TILE];
                for t in 0..NT_TILE {
                    s[t] = (s0[t] + s1[t]) + (s2[t] + s3[t]);
                }
                for (&x, p) in xr.iter().zip(pr.chunks_exact(NT_TILE)) {
                    for (st, &pt) in s.iter_mut().zip(p) {
                        *st += x * pt;
                    }
                }
                let j0 = jb * NT_TILE;
                let w = NT_TILE.min(n - j0);
                orow[j0..j0 + w].copy_from_slice(&s[..w]);
            }
        }
    }
}

/// The kernels compiled with AVX2 enabled. Each wrapper is the portable body
/// inlined under `#[target_feature(enable = "avx2")]`; calling one on a host
/// without AVX2 is undefined behaviour, so callers check first.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::{kernels, Matrix};

    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        kernels::matmul_into(a, b, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_acc_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        kernels::matmul_acc_into(a, b, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn matmul_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        kernels::matmul_nt(a, b, out)
    }
}

/// Dot product with four independent accumulators (`chunks_exact` keeps the
/// inner loop free of bounds checks). The summation order is a fixed
/// function of the slice length, so every call site (attention scores and
/// their backward, batched inference) produces identical bit patterns for
/// identical inputs; [`Matrix::matmul_nt`] reproduces it element for
/// element.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut s0 = 0.0f32;
    let mut s1 = 0.0f32;
    let mut s2 = 0.0f32;
    let mut s3 = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

impl foss_common::Codec for Matrix {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        for &v in &self.data {
            w.put_f32(v);
        }
    }

    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            foss_common::FossError::Serde(format!("matrix shape overflow: {rows}x{cols}"))
        })?;
        let mut data = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
        for _ in 0..n {
            data.push(r.get_f32()?);
        }
        Ok(Self { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook i-j-k reference kernel the tiled implementations are tested
    /// against (f32 rounding may differ; comparisons use a tolerance).
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut s = 0.0f32;
                for k in 0..a.cols {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn pattern_matrix(rows: usize, cols: usize, salt: f32) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 * 0.37 + salt).sin()) * 0.5)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large inputs must not overflow.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let a = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let s = a.softmax_rows();
        let ls = a.log_softmax_rows();
        for c in 0..3 {
            assert!((ls.get(0, c).exp() - s.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn zip_and_map() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.zip(&b, |x, y| x * y), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn tiled_matmul_matches_naive_on_ragged_shapes() {
        // 1×N, N×1, dims that are not multiples of the k-tile (64) or the
        // unroll width (4), and a shape that spans several k-tiles.
        let shapes = [
            (1, 7, 5),
            (7, 1, 9),
            (3, 1, 1),
            (5, 66, 3),
            (9, 130, 11),
            (13, 17, 19),
            (2, 64, 2),
            (1, 129, 1),
        ];
        for (m, k, n) in shapes {
            let a = pattern_matrix(m, k, 0.1);
            let b = pattern_matrix(k, n, 0.9);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5);
        }
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = pattern_matrix(6, 70, 0.3);
        let b = pattern_matrix(70, 5, 0.7);
        let mut out = Matrix::full(6, 5, f32::NAN); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch")]
    fn matmul_into_checks_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    /// A kernel build the tests can run: the portable body, or (on x86 with
    /// AVX2) the AVX2 wrapper.
    #[derive(Clone, Copy, Debug)]
    enum Build {
        Portable,
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Avx2,
    }

    /// Every build this host can run. Without AVX2 only the portable half is
    /// checked, and the test output says so.
    fn builds() -> Vec<Build> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            return vec![Build::Portable, Build::Avx2];
        }
        eprintln!("host lacks AVX2: only the portable kernels are checked");
        vec![Build::Portable]
    }

    /// Run kernel `$name` as built by `$build`.
    macro_rules! on {
        ($build:expr, $name:ident($($arg:expr),*)) => {
            match $build {
                Build::Portable => kernels::$name($($arg),*),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // SAFETY: `builds` offers `Avx2` only on a host with AVX2.
                Build::Avx2 => unsafe { avx2::$name($($arg),*) },
            }
        };
    }

    /// `a @ b`, `bias + a @ b` and `a @ cᵀ` (`c` is `b` transposed), each as
    /// `build` computes it from an output full of stale NaNs.
    fn products(build: Build, a: &Matrix, b: &Matrix, bias: &Matrix) -> [Matrix; 3] {
        let mut into = Matrix::full(a.rows, b.cols, f32::NAN);
        on!(build, matmul_into(a, b, &mut into));
        let mut acc = bias.clone();
        on!(build, matmul_acc_into(a, b, &mut acc));
        let mut nt = Matrix::zeros(a.rows, b.cols);
        on!(build, matmul_nt(a, &b.transpose(), &mut nt));
        [into, acc, nt]
    }

    /// Entries spread over seven decades, so that any change in summation
    /// order shows in the low bits.
    fn ragged_matrix(rows: usize, cols: usize, salt: f32) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + salt).sin() * 10f32.powi(i as i32 % 7 - 3))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dispatch_builds_are_bit_identical() {
        let builds = builds();
        for m in [1, 3, 7, 9] {
            for k in [1, 3, 4, 5, 64, 65, 145] {
                for n in [1, 5, 13, 23, 33] {
                    let a = ragged_matrix(m, k, 0.1);
                    let b = ragged_matrix(k, n, 0.7);
                    let bias = ragged_matrix(m, n, 0.4);
                    let want = products(Build::Portable, &a, &b, &bias);
                    for &build in &builds {
                        for (got, want) in products(build, &a, &b, &bias).iter().zip(&want) {
                            assert_eq!(bits(got), bits(want), "{build:?} {m}x{k}x{n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_nt_equals_dot_per_element() {
        for (m, k, n) in [(1, 5, 4), (6, 66, 1), (9, 13, 7), (3, 145, 17), (5, 3, 40)] {
            let a = ragged_matrix(m, k, 0.2);
            let b = ragged_matrix(n, k, 0.8); // matmul_nt computes a @ b^T
            let mut outs = vec![a.matmul_nt(&b)];
            for build in builds() {
                let mut out = Matrix::zeros(m, n);
                on!(build, matmul_nt(&a, &b, &mut out));
                outs.push(out);
            }
            for out in &outs {
                for i in 0..m {
                    for j in 0..n {
                        let want = dot(a.row(i), b.row(j));
                        assert_eq!(
                            out.get(i, j).to_bits(),
                            want.to_bits(),
                            "{m}x{k}x{n} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_rows_are_batch_independent() {
        // The batched-inference invariant: computing rows together must give
        // bit-identical results to computing each row alone, whichever build
        // runs and wherever the row falls in the two-row blocking.
        let w = ragged_matrix(70, 9, 0.4);
        let xs = ragged_matrix(5, 70, 0.5);
        let bias = ragged_matrix(5, 9, 0.6);
        for build in builds() {
            let stacked = products(build, &xs, &w, &bias);
            for r in 0..xs.rows {
                let x = Matrix::from_vec(1, 70, xs.row(r).to_vec());
                let b = Matrix::from_vec(1, 9, bias.row(r).to_vec());
                for (all, one) in stacked.iter().zip(products(build, &x, &w, &b)) {
                    assert_eq!(
                        bits(all)[r * 9..(r + 1) * 9],
                        bits(&one),
                        "{build:?} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_tiling_covers_odd_dims() {
        for (r, c) in [(1, 40), (40, 1), (17, 23), (16, 16), (33, 31)] {
            let a = pattern_matrix(r, c, 0.15);
            let t = a.transpose();
            assert_eq!((t.rows, t.cols), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), a.get(i, j));
                }
            }
        }
    }

    #[test]
    fn dot_matches_sequential_sum() {
        for len in [0usize, 1, 3, 4, 7, 64, 130] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.23).sin()).collect();
            let seq: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - seq).abs() < 1e-4 * (1.0 + seq.abs()));
        }
    }
}
