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

/// A build of the dense kernels: the portable bodies in [`kernels`], or on
/// x86 the register-blocked [`avx2`] or [`avx512`] build. Every build gives
/// every element the same IEEE operations in the same order, so they differ
/// in speed only. A value other than `Portable` is made only once the host
/// has been found to have that build's target feature ([`Build::host`], and
/// the tests' `builds`), which is what makes running it sound.
#[derive(Clone, Copy, Debug)]
enum Build {
    Portable,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
}

impl Build {
    /// The fastest build the host runs: `avx512f`, else `avx2`, else the
    /// portable one. The CPU decides; nothing else selects a build.
    fn host() -> Build {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx512f") {
                return Build::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Build::Avx2;
            }
        }
        Build::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Build::Portable => "portable",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Build::Avx2 => "avx2",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Build::Avx512 => "avx512f",
        }
    }
}

/// The kernel build this host runs — `"avx512f"`, `"avx2"` or
/// `"portable"` — so that a timing can say which kernels produced it. The
/// result, unlike the speed, is the same on every build.
pub fn kernel_build() -> &'static str {
    Build::host().name()
}

/// Run kernel `$name` as built by `$build`.
macro_rules! dispatch {
    ($build:expr, $name:ident($($arg:expr),*)) => {
        match $build {
            Build::Portable => kernels::$name($($arg),*),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx2` build is only made on a host with AVX2.
            Build::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx512` build is only made on a host with AVX-512F.
            Build::Avx512 => unsafe { avx512::$name($($arg),*) },
        }
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
    /// Element `(i, j)` is summed in a fixed order: the first group of four
    /// `k` is assigned as `((x0·b0 + x1·b1) + x2·b2) + x3·b3`, each later
    /// group is summed the same way and then added, and the `k % 4`
    /// remainder is added one term at a time. The order is a function of `k`
    /// alone, never of the row count or a row's position in a tile, so
    /// stacking extra rows onto a batch cannot change any existing row's
    /// result bit pattern — the property the batched inference path relies
    /// on.
    ///
    /// **Dispatch.** This kernel, [`Matrix::matmul_acc_into`],
    /// [`Matrix::matmul_nt`] and [`Matrix::matmul_tn`] check once per call
    /// which build the host runs ([`kernel_build`]): the AVX-512 build
    /// (`avx512f`), else the AVX2 build, else the portable one. The x86
    /// builds are register-blocked microkernels that keep an output tile in
    /// vector registers for the whole `k` loop (4 rows × 16 columns with
    /// AVX2, 8 × 16 with AVX-512), but they give every element the portable
    /// body's operations in the portable body's order, using separate
    /// multiply and add instructions. Enabling `avx512f` also enables `fma`;
    /// that is harmless only because Rust never contracts `a * b + c` into
    /// a fused multiply-add, which the tests check. So every result is
    /// bit-identical on every build and every host.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        dispatch!(Build::host(), matmul_into(self, other, out))
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
        dispatch!(Build::host(), matmul_acc_into(self, other, out))
    }

    /// `self @ other^T`: element `(i, j)` is exactly [`dot`]`(self.row(i),
    /// other.row(j))`, bit for bit. Used by the matmul backward pass
    /// (`g · Wᵀ`).
    ///
    /// Computed with the same dispatch as [`Matrix::matmul_into`]. The
    /// portable body works in axpy form over the transposed right operand:
    /// `dot`'s four lane accumulators become four accumulator rows, 16
    /// output columns wide, that advance together through `k`. The x86
    /// builds pack four rows of `self` side by side instead, so that one
    /// vector holds the four lane sums of four output rows; each row of
    /// `other` is then loaded once for those four rows. Either way the `k %
    /// 4` remainder is added after the lanes are combined, as in `dot`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt width mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        dispatch!(Build::host(), matmul_nt(self, other, &mut out));
        out
    }

    /// `selfᵀ @ other` without materialising the transpose: the same
    /// per-element operations, in the same order, as
    /// `self.transpose().matmul(other)`, so the bits are identical. Used by
    /// the matmul backward pass for weight gradients (`xᵀ · g`), with the
    /// same dispatch as [`Matrix::matmul_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn height mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        dispatch!(Build::host(), matmul_tn(self, other, &mut out));
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

/// The operands of the fused multi-head attention over a stacked segment
/// batch (`Graph::seg_multi_head_attention`): the packed projection `qkv`
/// (`ΣL × 3·d_model`, laid out `[Q | K | V]` with heads side by side inside
/// each section), the additive reachability `mask` (`ΣL × max(segs)`, `0.0`
/// = attend), the segment lengths, the head count and the score scale.
/// Shapes are checked by the caller.
pub(crate) struct SegAttention<'a> {
    pub(crate) qkv: &'a Matrix,
    pub(crate) mask: &'a Matrix,
    pub(crate) segs: &'a [usize],
    pub(crate) heads: usize,
    pub(crate) scale: f32,
}

impl SegAttention<'_> {
    /// The `ΣL × d_model` attention output, each head in its own column
    /// window. When `attn` holds one zeroed `ΣL × max(segs)` matrix per
    /// head, each head's softmax weights are saved there for
    /// [`SegAttention::backward`]; an empty `attn` saves nothing.
    ///
    /// Dispatched like [`Matrix::matmul_into`], except that both x86 builds
    /// run the portable body compiled with AVX2 enabled, which performs the
    /// same IEEE operations per element in the same order.
    pub(crate) fn forward(&self, attn: &mut [Matrix]) -> Matrix {
        let mut out = Matrix::zeros(self.qkv.rows, self.qkv.cols / 3);
        dispatch!(Build::host(), seg_mha_forward(self, &mut out, attn));
        out
    }

    /// The gradient with respect to `qkv`, given the upstream gradient `g`
    /// of the output and the softmax weights `attn` the forward saved.
    pub(crate) fn backward(&self, attn: &[Matrix], g: &Matrix) -> Matrix {
        let mut gqkv = Matrix::zeros(self.qkv.rows, self.qkv.cols);
        dispatch!(Build::host(), seg_mha_backward(self, attn, g, &mut gqkv));
        gqkv
    }
}

/// The portable kernel bodies: the non-x86 build, and the oracle the x86
/// builds are tested against bit for bit. `#[inline(always)]` so that the
/// attention bodies, which have no blocked build, are also compiled into
/// their [`avx2`] wrappers with AVX2 enabled.
mod kernels {
    use super::{dot, Matrix, SegAttention};

    /// Body of [`Matrix::matmul_into`] (shapes already checked).
    #[inline(always)]
    pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let kd = a.cols;
        matmul_assign(a.rows, kd, |i, k| a.data[i * kd + k], b, out)
    }

    /// Body of [`Matrix::matmul_tn`] (shapes already checked): the
    /// [`matmul_into`] body reading `aᵀ` in place, row `i` of `aᵀ` being
    /// column `i` of `a`.
    #[inline(always)]
    pub(super) fn matmul_tn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let m = a.cols;
        matmul_assign(m, a.rows, |i, k| a.data[k * m + i], b, out)
    }

    /// `out = x @ b` for the `rows × kd` left operand whose element `(i, k)`
    /// is `x(i, k)`: the shared body of [`matmul_into`] and [`matmul_tn`].
    /// Every scalar of `x` is read once per output row pair, outside the
    /// vectorised loop over `b`'s columns, so where `x` lives costs nothing.
    #[inline(always)]
    fn matmul_assign(
        rows: usize,
        kd: usize,
        x: impl Fn(usize, usize) -> f32,
        b: &Matrix,
        out: &mut Matrix,
    ) {
        if kd == 0 {
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
        let bd = &b.data;
        let mut i = 0;
        while i + 2 <= rows {
            let (o0, o1) = out.data[i * n..(i + 2) * n].split_at_mut(n);
            let mut k = if kd >= 4 {
                let (x00, x01, x02, x03) = (x(i, 0), x(i, 1), x(i, 2), x(i, 3));
                let (x10, x11, x12, x13) = (x(i + 1, 0), x(i + 1, 1), x(i + 1, 2), x(i + 1, 3));
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
                let (x0, x1) = (x(i, 0), x(i + 1, 0));
                let brow = &bd[..n];
                for j in 0..n {
                    o0[j] = x0 * brow[j];
                    o1[j] = x1 * brow[j];
                }
                1
            };
            while k + 4 <= kd {
                let (x00, x01, x02, x03) = (x(i, k), x(i, k + 1), x(i, k + 2), x(i, k + 3));
                let (x10, x11, x12, x13) = (
                    x(i + 1, k),
                    x(i + 1, k + 1),
                    x(i + 1, k + 2),
                    x(i + 1, k + 3),
                );
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
                let (x0, x1) = (x(i, k), x(i + 1, k));
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    o0[j] += x0 * brow[j];
                    o1[j] += x1 * brow[j];
                }
                k += 1;
            }
            i += 2;
        }
        if i < rows {
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut k = if kd >= 4 {
                let (x0, x1, x2, x3) = (x(i, 0), x(i, 1), x(i, 2), x(i, 3));
                let b0 = &bd[..n];
                let b1 = &bd[n..2 * n];
                let b2 = &bd[2 * n..3 * n];
                let b3 = &bd[3 * n..4 * n];
                for j in 0..n {
                    orow[j] = x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
                }
                4
            } else {
                let x0 = x(i, 0);
                let brow = &bd[..n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = x0 * bv;
                }
                1
            };
            while k + 4 <= kd {
                let (x0, x1, x2, x3) = (x(i, k), x(i, k + 1), x(i, k + 2), x(i, k + 3));
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
                let x0 = x(i, k);
                let brow = &bd[k * n..k * n + n];
                for j in 0..n {
                    orow[j] += x0 * brow[j];
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

    /// Output columns one [`matmul_nt`] panel covers: four SSE vectors.
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

    /// Body of [`SegAttention::forward`] (`out` zeroed).
    ///
    /// For every head: masked scores, a numerically-stabilised softmax (in a
    /// row buffer — no intermediate matrices) and the weighted value sum,
    /// written into the head's own column window of `out`.
    #[inline(always)]
    pub(super) fn seg_mha_forward(a: &SegAttention<'_>, out: &mut Matrix, attn: &mut [Matrix]) {
        let (qm, mm) = (a.qkv, a.mask);
        let w3 = qm.cols;
        let d_model = w3 / 3;
        let dk = d_model / a.heads;
        let lmax = mm.cols;
        let mut buf = vec![0.0f32; lmax];
        // Per-segment transposed K panel: scores then accumulate over the
        // feature index with a contiguous, vectorisable inner loop over `j`
        // instead of one short dot product per (i, j) pair.
        let mut kt = vec![0.0f32; lmax * dk];
        for h in 0..a.heads {
            let (qo, ko, vo) = (h * dk, d_model + h * dk, 2 * d_model + h * dk);
            let mut base = 0;
            for &l in a.segs {
                for (c, col) in kt.chunks_mut(l).take(dk).enumerate() {
                    for (j, o) in col.iter_mut().enumerate() {
                        *o = qm.data[(base + j) * w3 + ko + c];
                    }
                }
                for i in 0..l {
                    let qi = &qm.data[(base + i) * w3 + qo..(base + i) * w3 + qo + dk];
                    let row = &mut buf[..l];
                    // Scores over all j at once, feature-major.
                    row.fill(0.0);
                    for (&qv, krow) in qi.iter().zip(kt.chunks_exact(l)) {
                        for (b, &kv) in row.iter_mut().zip(krow) {
                            *b += qv * kv;
                        }
                    }
                    // Scale, then overwrite blocked positions with the mask
                    // value (their computed score is discarded, keeping the
                    // output identical to the skip-masked formulation).
                    let mrow = &mm.data[(base + i) * lmax..(base + i) * lmax + l];
                    for (b, &mv) in row.iter_mut().zip(mrow) {
                        *b = if mv == 0.0 { *b * a.scale } else { mv };
                    }
                    // Softmax with the exp-underflow shortcut.
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for b in row.iter_mut() {
                        let x = *b - max;
                        *b = if x <= -105.0 { 0.0 } else { x.exp() };
                        sum += *b;
                    }
                    let inv = 1.0 / sum;
                    for b in row.iter_mut() {
                        *b *= inv;
                    }
                    // Weighted value sum; masked weights are exactly 0.
                    let orow = &mut out.data
                        [(base + i) * d_model + h * dk..(base + i) * d_model + h * dk + dk];
                    for (j, &w) in row.iter().enumerate() {
                        if w == 0.0 {
                            continue;
                        }
                        let vrow = &qm.data[(base + j) * w3 + vo..(base + j) * w3 + vo + dk];
                        for (o, &vv) in orow.iter_mut().zip(vrow) {
                            *o += w * vv;
                        }
                    }
                    if let Some(y) = attn.get_mut(h) {
                        y.data[(base + i) * lmax..(base + i) * lmax + l].copy_from_slice(row);
                    }
                }
                base += l;
            }
        }
    }

    /// Body of [`SegAttention::backward`] (`gqkv` zeroed).
    #[inline(always)]
    pub(super) fn seg_mha_backward(
        a: &SegAttention<'_>,
        attn: &[Matrix],
        g: &Matrix,
        gqkv: &mut Matrix,
    ) {
        let (qm, mm) = (a.qkv, a.mask);
        let w3 = qm.cols;
        let d_model = w3 / 3;
        let dk = d_model / a.heads;
        let lmax = mm.cols;
        let mut gy = vec![0.0f32; lmax];
        for (h, y) in attn.iter().enumerate() {
            let (qo, ko, vo) = (h * dk, d_model + h * dk, 2 * d_model + h * dk);
            let mut base = 0;
            for &l in a.segs {
                for i in 0..l {
                    let grow =
                        &g.data[(base + i) * d_model + h * dk..(base + i) * d_model + h * dk + dk];
                    let yrow = &y.data[(base + i) * lmax..(base + i) * lmax + l];
                    // gy = d(loss)/d(attn weights).
                    for (j, o) in gy[..l].iter_mut().enumerate() {
                        *o = dot(
                            grow,
                            &qm.data[(base + j) * w3 + vo..(base + j) * w3 + vo + dk],
                        );
                    }
                    // Softmax backward: gs = y ⊙ (gy − Σ gy·y).
                    let dotsum: f32 = gy[..l].iter().zip(yrow).map(|(a, b)| a * b).sum();
                    let mrow = &mm.data[(base + i) * lmax..(base + i) * lmax + l];
                    let qi = (base + i) * w3 + qo;
                    for j in 0..l {
                        let yij = yrow[j];
                        // gv: every attended value row gains y·g.
                        if yij != 0.0 {
                            let vj = (base + j) * w3 + vo;
                            for (o, &gg) in gqkv.data[vj..vj + dk].iter_mut().zip(grow) {
                                *o += yij * gg;
                            }
                        }
                        if mrow[j] != 0.0 {
                            continue; // blocked: no score was computed
                        }
                        let gs = yij * (gy[j] - dotsum) * a.scale;
                        let kj = (base + j) * w3 + ko;
                        for (o, &kv) in gqkv.data[qi..qi + dk].iter_mut().zip(&qm.data[kj..kj + dk])
                        {
                            *o += gs * kv;
                        }
                        for (o, &qv) in gqkv.data[kj..kj + dk].iter_mut().zip(&qm.data[qi..qi + dk])
                        {
                            *o += gs * qv;
                        }
                    }
                }
                base += l;
            }
        }
    }
}

/// The register-blocked x86 builds of the dense kernels, written once and
/// expanded into [`avx2`] and [`avx512`] under the build's target feature.
/// The expanding module has `Matrix` in scope and supplies `V`, sixteen
/// `f32` lanes held in registers (a strip of 16 output columns); the
/// lane-wise `zero`, `splat`, `add`, `mul`, `load`, `store`, `load4` (four
/// floats repeated in each group of four lanes) and `sums4` (lane `4g` set
/// to `(s0 + s1) + (s2 + s3)` of its group's four lanes `s`); and two tile
/// sizes: `ROWS`, the output rows a matmul tile keeps in registers, and
/// `NT_COLS`, the output columns a `matmul_nt` pass keeps in registers.
///
/// Each kernel gives every output element exactly the operations of its
/// portable body in [`kernels`], in the same order, with a separate multiply
/// and add per term; only which elements are computed side by side changes,
/// and no element depends on another.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
macro_rules! blocked_kernels {
    ($feature:literal) => {
        /// Output columns in a strip.
        const LANES: usize = 16;

        #[target_feature(enable = $feature)]
        pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
            matmul::<true>(a, false, b, out)
        }

        #[target_feature(enable = $feature)]
        pub(super) fn matmul_acc_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
            matmul::<false>(a, false, b, out)
        }

        #[target_feature(enable = $feature)]
        pub(super) fn matmul_tn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
            matmul::<true>(a, true, b, out)
        }

        /// `out = x @ b` (`ASSIGN`) or `out += x @ b`, where `x` is `a`, or
        /// `aᵀ` when `transposed` (shapes already checked). Output rows go in
        /// tiles of `ROWS`, the last few in tiles of 4, 2 and 1, and each
        /// tile in strips of 16 columns. The last `n % 16` columns go through
        /// a zero-padded copy of their part of `b` and a scratch tile, so
        /// every tile is a full strip.
        #[target_feature(enable = $feature)]
        #[inline]
        fn matmul<const ASSIGN: bool>(a: &Matrix, transposed: bool, b: &Matrix, out: &mut Matrix) {
            let (rows, kd) = if transposed {
                (a.cols, a.rows)
            } else {
                (a.rows, a.cols)
            };
            let n = b.cols;
            if ASSIGN && kd == 0 {
                out.data.fill(0.0);
            }
            if kd == 0 || n == 0 {
                return;
            }
            let full = n - n % LANES;
            let w = n - full;
            let mut edge = vec![0.0f32; if w > 0 { kd * LANES } else { 0 }];
            for (e, row) in edge.chunks_exact_mut(LANES).zip(b.data.chunks_exact(n)) {
                e[..w].copy_from_slice(&row[full..]);
            }
            // `x(i, k)` is `a.data[i * rs + k * ks]`.
            let (rs, ks) = if transposed { (1, rows) } else { (kd, 1) };
            let mut i = 0;
            while i < rows {
                let h = match rows - i {
                    left if left >= ROWS => ROWS,
                    left if left >= 4 => 4,
                    left if left >= 2 => 2,
                    _ => 1,
                };
                let x = Strided {
                    xs: &a.data[i * rs..],
                    rs,
                    ks,
                    kd,
                };
                let o = &mut out.data[i * n..(i + h) * n];
                for j in (0..full).step_by(LANES) {
                    tile_rows::<ASSIGN>(h, &x, &b.data[j..], n, &mut o[j..], n);
                }
                if w > 0 {
                    let mut t = [0.0f32; ROWS * LANES];
                    for (t, o) in t.chunks_exact_mut(LANES).zip(o.chunks_exact(n)) {
                        t[..w].copy_from_slice(&o[full..]);
                    }
                    tile_rows::<ASSIGN>(h, &x, &edge, LANES, &mut t, LANES);
                    for (t, o) in t.chunks_exact(LANES).zip(o.chunks_exact_mut(n)) {
                        o[full..].copy_from_slice(&t[..w]);
                    }
                }
                i += h;
            }
        }

        /// The left operand of a tile: `x(r, k)` is `xs[r * rs + k * ks]`
        /// for `k < kd`.
        #[derive(Clone, Copy)]
        struct Strided<'a> {
            xs: &'a [f32],
            rs: usize,
            ks: usize,
            kd: usize,
        }

        /// [`tile`] for `h` (`ROWS`, 4, 2 or 1) rows.
        #[target_feature(enable = $feature)]
        #[inline]
        fn tile_rows<const ASSIGN: bool>(
            h: usize,
            x: &Strided<'_>,
            b: &[f32],
            bs: usize,
            out: &mut [f32],
            os: usize,
        ) {
            match h {
                1 => tile::<1, ASSIGN>(x, b, bs, out, os),
                2 => tile::<2, ASSIGN>(x, b, bs, out, os),
                4 => tile::<4, ASSIGN>(x, b, bs, out, os),
                _ => tile::<ROWS, ASSIGN>(x, b, bs, out, os),
            }
        }

        /// An `R`-row × 16-column output tile, kept in registers for the
        /// whole `k` loop (`x.kd ≥ 1`): `b(k, c)` is `b[k * bs + c]` and
        /// `out(r, c)` is `out[r * os + c]`. Each `b` strip is loaded once
        /// per tile and `k`, and each element is summed in the portable
        /// body's order.
        #[target_feature(enable = $feature)]
        #[inline]
        fn tile<const R: usize, const ASSIGN: bool>(
            x: &Strided<'_>,
            b: &[f32],
            bs: usize,
            out: &mut [f32],
            os: usize,
        ) {
            let Strided { xs, rs, ks, kd } = *x;
            // Saturating, so that no product can wrap past a check.
            let last = |count: usize, stride: usize| (count - 1).saturating_mul(stride);
            assert!(kd >= 1 && xs.len() > last(R, rs).saturating_add(last(kd, ks)));
            assert!(b.len() >= last(kd, bs).saturating_add(LANES));
            assert!(out.len() >= last(R, os).saturating_add(LANES));
            let (xp, bp, op) = (xs.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            // SAFETY: every read is of `x(r, k)` or of 16 lanes from
            // `b(k, 0)`, and every load or store of `out` covers 16 lanes
            // from `out(r, 0)`, for `r < R` and `k < kd`; the asserts above
            // put all of them inside `xs`, `b` and `out`.
            unsafe {
                let x = |k: usize| {
                    let p = xp.add(k * ks);
                    std::array::from_fn::<f32, R, _>(|r| *p.add(r * rs))
                };
                let strip = |k: usize| load(bp.add(k * bs));
                let mut acc = [zero(); R];
                let mut k = 0;
                if !ASSIGN {
                    for (r, v) in acc.iter_mut().enumerate() {
                        *v = load(op.add(r * os));
                    }
                } else if kd >= 4 {
                    let b4 = [strip(0), strip(1), strip(2), strip(3)];
                    let x4 = [x(0), x(1), x(2), x(3)];
                    for (r, v) in acc.iter_mut().enumerate() {
                        *v = group([x4[0][r], x4[1][r], x4[2][r], x4[3][r]], &b4);
                    }
                    k = 4;
                } else {
                    let (b0, x0) = (strip(0), x(0));
                    for (v, &x) in acc.iter_mut().zip(&x0) {
                        *v = mul(splat(x), b0);
                    }
                    k = 1;
                }
                while k + 4 <= kd {
                    let b4 = [strip(k), strip(k + 1), strip(k + 2), strip(k + 3)];
                    let x4 = [x(k), x(k + 1), x(k + 2), x(k + 3)];
                    for (r, v) in acc.iter_mut().enumerate() {
                        *v = add(*v, group([x4[0][r], x4[1][r], x4[2][r], x4[3][r]], &b4));
                    }
                    k += 4;
                }
                while k < kd {
                    let (bk, xk) = (strip(k), x(k));
                    for (v, &x) in acc.iter_mut().zip(&xk) {
                        *v = add(*v, mul(splat(x), bk));
                    }
                    k += 1;
                }
                for (r, &v) in acc.iter().enumerate() {
                    store(op.add(r * os), v);
                }
            }
        }

        /// `((x0·b0 + x1·b1) + x2·b2) + x3·b3`, lane by lane.
        #[target_feature(enable = $feature)]
        #[inline]
        fn group(x: [f32; 4], b: &[V; 4]) -> V {
            add(
                add(
                    add(mul(splat(x[0]), b[0]), mul(splat(x[1]), b[1])),
                    mul(splat(x[2]), b[2]),
                ),
                mul(splat(x[3]), b[3]),
            )
        }

        /// Body of [`Matrix::matmul_nt`] for this build (widths already
        /// checked; `out` zeroed). Four rows of `a` are packed side by side
        /// per group of four `k`, row `r` in lanes `4r..4r + 4`, so one
        /// product with four values of a row of `b` repeated four times
        /// advances [`super::dot`]'s four lane sums for four output rows at
        /// once. The last group of rows is padded with zeros, whose sums are
        /// never stored.
        #[target_feature(enable = $feature)]
        pub(super) fn matmul_nt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
            let (m, kd, n) = (a.rows, a.cols, b.rows);
            if kd == 0 || n == 0 {
                return;
            }
            let k4 = kd - kd % 4;
            let mut pack = vec![0.0f32; m.div_ceil(4) * 4 * k4];
            for (i, row) in a.data.chunks_exact(kd).enumerate() {
                let base = (i / 4) * 4 * k4 + (i % 4) * 4;
                for (q, x) in row[..k4].chunks_exact(4).enumerate() {
                    pack[base + q * LANES..base + q * LANES + 4].copy_from_slice(x);
                }
            }
            // Each block of `b`'s rows stays in L1 while the packed rows of
            // `a` stream past it.
            let mut j = 0;
            while j < n {
                let c = if j + NT_COLS <= n { NT_COLS } else { 1 };
                for g in 0..m.div_ceil(4) {
                    let (i0, i1) = (4 * g, (4 * g + 4).min(m));
                    let ap = &pack[i0 * k4..(i0 + 4) * k4];
                    let rows = &a.data[i0 * kd..i1 * kd];
                    let o = &mut out.data[i0 * n..i1 * n];
                    let b = &b.data[j * kd..];
                    if c == NT_COLS {
                        nt_tile::<NT_COLS>(ap, rows, b, kd, j, o, n);
                    } else {
                        nt_tile::<1>(ap, rows, b, kd, j, o, n);
                    }
                }
                j += c;
            }
        }

        /// `out[r * n + j + c] = dot(row r, row c of b)` for `c < C`, where
        /// `b` starts at the matrix's row `j` and the (up to four) `rows`,
        /// `kd` values each, have their first `k4` values packed in `ap`.
        #[target_feature(enable = $feature)]
        #[inline]
        fn nt_tile<const C: usize>(
            ap: &[f32],
            rows: &[f32],
            b: &[f32],
            kd: usize,
            j: usize,
            out: &mut [f32],
            n: usize,
        ) {
            let k4 = ap.len() / 4;
            assert!(b.len() >= C.saturating_mul(kd) && k4 <= kd && ap.len() % LANES == 0);
            let bp = b.as_ptr();
            let mut acc = [zero(); C];
            // SAFETY: each `load` reads 16 floats of `ap`, a whole chunk of
            // 16, and each `load4` reads `b(c, 4q..4q + 4)` with `c < C` and
            // `4q + 4 ≤ k4 ≤ kd`, inside `b` by the assert above.
            unsafe {
                for (q, x) in ap.chunks_exact(LANES).enumerate() {
                    let x = load(x.as_ptr());
                    for (c, v) in acc.iter_mut().enumerate() {
                        *v = add(*v, mul(x, load4(bp.add(c * kd + 4 * q))));
                    }
                }
            }
            let mut lanes = [[0.0f32; LANES]; C];
            for (l, &v) in lanes.iter_mut().zip(&acc) {
                // SAFETY: `l` holds the 16 floats stored.
                unsafe { store(l.as_mut_ptr(), sums4(v)) };
            }
            for (r, x) in rows.chunks_exact(kd).enumerate() {
                let o = &mut out[r * n + j..r * n + j + C];
                for (c, (o, l)) in o.iter_mut().zip(&lanes).enumerate() {
                    *o = l[4 * r];
                    if k4 < kd {
                        for (&x, &y) in x[k4..].iter().zip(&b[c * kd + k4..(c + 1) * kd]) {
                            *o += x * y;
                        }
                    }
                }
            }
        }
    };
}

/// The AVX2 build: a strip is two 8-lane vectors, a matmul tile is 4 rows
/// (8 accumulators) and a `matmul_nt` pass 4 columns (8 accumulators).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{kernels, Matrix, SegAttention};

    type V = [__m256; 2];
    const ROWS: usize = 4;
    const NT_COLS: usize = 4;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn zero() -> V {
        [_mm256_setzero_ps(); 2]
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(x: f32) -> V {
        [_mm256_set1_ps(x); 2]
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn add(a: V, b: V) -> V {
        [_mm256_add_ps(a[0], b[0]), _mm256_add_ps(a[1], b[1])]
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul(a: V, b: V) -> V {
        [_mm256_mul_ps(a[0], b[0]), _mm256_mul_ps(a[1], b[1])]
    }

    /// `p[..16]`.
    // SAFETY: a contract — `p` must be valid for reading 16 floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(p: *const f32) -> V {
        [_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))]
    }

    /// `p[..16] = v`.
    // SAFETY: a contract — `p` must be valid for writing 16 floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(p: *mut f32, v: V) {
        _mm256_storeu_ps(p, v[0]);
        _mm256_storeu_ps(p.add(8), v[1]);
    }

    /// `p[..4]` in every group of four lanes.
    // SAFETY: a contract — `p` must be valid for reading 4 floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load4(p: *const f32) -> V {
        let x = _mm_loadu_ps(p);
        let v = _mm256_set_m128(x, x);
        [v, v]
    }

    /// Lane `4g` of each group of four lanes `s` is `(s0 + s1) + (s2 + s3)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sums4(v: V) -> V {
        let mut v = v;
        for h in &mut v {
            let t = _mm256_add_ps(*h, _mm256_permute_ps::<0b1011_0001>(*h));
            *h = _mm256_add_ps(t, _mm256_permute_ps::<0b0100_1110>(t));
        }
        v
    }

    blocked_kernels!("avx2");

    /// The portable attention body compiled with AVX2 enabled.
    #[target_feature(enable = "avx2")]
    pub(super) fn seg_mha_forward(a: &SegAttention<'_>, out: &mut Matrix, attn: &mut [Matrix]) {
        kernels::seg_mha_forward(a, out, attn)
    }

    /// The portable attention body compiled with AVX2 enabled.
    #[target_feature(enable = "avx2")]
    pub(super) fn seg_mha_backward(
        a: &SegAttention<'_>,
        attn: &[Matrix],
        g: &Matrix,
        gqkv: &mut Matrix,
    ) {
        kernels::seg_mha_backward(a, attn, g, gqkv)
    }
}

/// The AVX-512 build: a strip is one 16-lane vector, a matmul tile is 8
/// rows and a `matmul_nt` pass 8 columns (8 accumulators each). It
/// multiplies and adds with `_mm512_mul_ps` and `_mm512_add_ps`, never a
/// fused multiply-add intrinsic.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx512 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{avx2, Matrix, SegAttention};

    type V = __m512;
    const ROWS: usize = 8;
    const NT_COLS: usize = 8;

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn zero() -> V {
        _mm512_setzero_ps()
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn add(a: V, b: V) -> V {
        _mm512_add_ps(a, b)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn mul(a: V, b: V) -> V {
        _mm512_mul_ps(a, b)
    }

    /// `p[..16]`.
    // SAFETY: a contract — `p` must be valid for reading 16 floats.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(p: *const f32) -> V {
        _mm512_loadu_ps(p)
    }

    /// `p[..16] = v`.
    // SAFETY: a contract — `p` must be valid for writing 16 floats.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store(p: *mut f32, v: V) {
        _mm512_storeu_ps(p, v)
    }

    /// `p[..4]` in every group of four lanes.
    // SAFETY: a contract — `p` must be valid for reading 4 floats.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load4(p: *const f32) -> V {
        _mm512_broadcast_f32x4(_mm_loadu_ps(p))
    }

    /// Lane `4g` of each group of four lanes `s` is `(s0 + s1) + (s2 + s3)`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn sums4(v: V) -> V {
        let t = _mm512_add_ps(v, _mm512_permute_ps::<0b1011_0001>(v));
        _mm512_add_ps(t, _mm512_permute_ps::<0b0100_1110>(t))
    }

    blocked_kernels!("avx512f");

    /// The attention kernels run their AVX2 build here too: compiled with
    /// AVX-512F enabled, the forward took 8 % more CPU in a paper-config
    /// training iteration (and the backward 15 % less).
    #[target_feature(enable = "avx512f")]
    pub(super) fn seg_mha_forward(a: &SegAttention<'_>, out: &mut Matrix, attn: &mut [Matrix]) {
        avx2::seg_mha_forward(a, out, attn)
    }

    /// See [`seg_mha_forward`].
    #[target_feature(enable = "avx512f")]
    pub(super) fn seg_mha_backward(
        a: &SegAttention<'_>,
        attn: &[Matrix],
        g: &Matrix,
        gqkv: &mut Matrix,
    ) {
        avx2::seg_mha_backward(a, attn, g, gqkv)
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

    /// Every build this host can run, printed so that a log shows which
    /// builds a run compared.
    fn builds() -> Vec<Build> {
        #[allow(unused_mut)]
        let mut builds = vec![Build::Portable];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                builds.push(Build::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                builds.push(Build::Avx512);
            }
        }
        let names: Vec<_> = builds.iter().map(|b| b.name()).collect();
        eprintln!("kernel builds checked: {}", names.join(" "));
        builds
    }

    /// `a @ b`, `bias + a @ b`, `a @ cᵀ` (`c` is `b` transposed) and
    /// `tᵀ @ b` (`t` is `a` transposed), each as `build` computes it from an
    /// output full of stale NaNs.
    fn products(build: Build, a: &Matrix, b: &Matrix, bias: &Matrix) -> [Matrix; 4] {
        let mut into = Matrix::full(a.rows, b.cols, f32::NAN);
        dispatch!(build, matmul_into(a, b, &mut into));
        let mut acc = bias.clone();
        dispatch!(build, matmul_acc_into(a, b, &mut acc));
        let mut nt = Matrix::zeros(a.rows, b.cols);
        dispatch!(build, matmul_nt(a, &b.transpose(), &mut nt));
        let mut tn = Matrix::full(a.rows, b.cols, f32::NAN);
        dispatch!(build, matmul_tn(&a.transpose(), b, &mut tn));
        [into, acc, nt, tn]
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
        // Every tile height (8, 4, 2, 1) and strip width (16 and narrower),
        // alone and together, with and without a `k % 4` remainder.
        let builds = builds();
        for m in [1, 3, 4, 7, 8, 9, 13, 17] {
            for k in [1, 2, 3, 4, 5, 64, 65, 145] {
                for n in [1, 5, 8, 13, 16, 23, 24, 25, 33, 48, 64, 65] {
                    let a = ragged_matrix(m, k, 0.1);
                    let b = ragged_matrix(k, n, 0.7);
                    let bias = ragged_matrix(m, n, 0.4);
                    let want = products(Build::Portable, &a, &b, &bias);
                    for &build in &builds {
                        let got = products(build, &a, &b, &bias);
                        for (got, want) in got.iter().zip(&want) {
                            assert_eq!(bits(got), bits(want), "{build:?} {m}x{k}x{n}");
                        }
                        // `matmul_tn` is `transpose().matmul()` without the
                        // transpose: the same bits as `matmul_into`.
                        assert_eq!(bits(&got[3]), bits(&got[0]), "{build:?} {m}x{k}x{n} tn");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_nt_equals_dot_per_element() {
        for (m, k, n) in [
            (1, 5, 4),
            (6, 66, 1),
            (9, 13, 7),
            (3, 145, 17),
            (5, 3, 40),
            (9, 64, 192),
            (17, 65, 19),
        ] {
            let a = ragged_matrix(m, k, 0.2);
            let b = ragged_matrix(n, k, 0.8); // matmul_nt computes a @ b^T
            let mut outs = vec![a.matmul_nt(&b)];
            for build in builds() {
                let mut out = Matrix::zeros(m, n);
                dispatch!(build, matmul_nt(&a, &b, &mut out));
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
        // runs and wherever the row falls in the tiles (13 rows are tiles of
        // 8, 4 and 1 with AVX-512, 4, 4, 4 and 1 with AVX2).
        let n = 33;
        let w = ragged_matrix(70, n, 0.4);
        let xs = ragged_matrix(13, 70, 0.5);
        let bias = ragged_matrix(13, n, 0.6);
        for build in builds() {
            let stacked = products(build, &xs, &w, &bias);
            for r in 0..xs.rows {
                let x = Matrix::from_vec(1, 70, xs.row(r).to_vec());
                let b = Matrix::from_vec(1, n, bias.row(r).to_vec());
                for (all, one) in stacked.iter().zip(products(build, &x, &w, &b)) {
                    assert_eq!(
                        bits(all)[r * n..(r + 1) * n],
                        bits(&one),
                        "{build:?} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        for (k, m, n) in [(1, 1, 1), (5, 3, 4), (145, 64, 192), (66, 9, 13), (3, 7, 2)] {
            let a = ragged_matrix(k, m, 0.3);
            let b = ragged_matrix(k, n, 0.6);
            let tn = a.matmul_tn(&b);
            assert_eq!((tn.rows, tn.cols), (m, n));
            assert_eq!(bits(&tn), bits(&a.transpose().matmul(&b)), "{k}x{m}x{n}");
            for build in builds() {
                let mut tn = Matrix::full(m, n, f32::NAN);
                dispatch!(build, matmul_tn(&a, &b, &mut tn));
                let mut into = Matrix::full(m, n, f32::NAN);
                dispatch!(build, matmul_into(&a.transpose(), &b, &mut into));
                assert_eq!(bits(&tn), bits(&into), "{build:?} {k}x{m}x{n}");
            }
        }
    }

    #[test]
    fn no_build_fuses_multiply_add() {
        // `u·u` is inexact, so `u·u − u·u` is 0 with two roundings and
        // ±2⁻²⁴ with one. Rows alternate between two patterns so that, in
        // every kernel, some product meets its own negation in a single
        // add: `[u, −u, 0, 0]` in a `matmul_into` group, and `[u, 0, 0, 0]`
        // then `[−u, 0, 0, 0]` in one of `dot`'s lanes. A build that fused
        // any such multiply and add would leave a non-zero element.
        let u = 1.0 + f32::EPSILON * 2.0f32.powi(11);
        assert_ne!(
            u.mul_add(u, -(u * u)),
            0.0,
            "the case must tell fused from not"
        );
        let (m, k, n) = (9, 8, 17);
        let a = Matrix::from_vec(
            m,
            k,
            (0..m)
                .flat_map(|i| match i % 2 {
                    0 => [u, -u, 0.0, 0.0, u, -u, 0.0, 0.0],
                    _ => [u, 0.0, 0.0, 0.0, -u, 0.0, 0.0, 0.0],
                })
                .collect(),
        );
        let b = Matrix::full(k, n, u);
        for build in builds() {
            for (name, out) in ["into", "acc", "nt", "tn"].iter().zip(products(
                build,
                &a,
                &b,
                &Matrix::zeros(m, n),
            )) {
                assert!(
                    out.data.iter().all(|&v| v == 0.0),
                    "{build:?} {name}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_build_is_the_fastest_build_checked() {
        assert_eq!(builds().last().map(|b| b.name()), Some(kernel_build()));
    }

    /// Ragged segments with a tree-like reachability mask, as the state
    /// network builds them: `(qkv, mask, segs)` for `heads` heads of width
    /// `dk`.
    fn attention_case(segs: &[usize], heads: usize, dk: usize) -> (Matrix, Matrix, Vec<usize>) {
        let total: usize = segs.iter().sum();
        let lmax = segs.iter().copied().max().unwrap_or(0);
        let mut mask = Matrix::full(total, lmax, -1e9);
        let mut base = 0;
        for &l in segs {
            for i in 0..l {
                for j in 0..l {
                    if j >= i || (i + j) % 3 == 0 {
                        mask.set(base + i, j, 0.0);
                    }
                }
            }
            base += l;
        }
        (
            ragged_matrix(total, 3 * heads * dk, 0.9),
            mask,
            segs.to_vec(),
        )
    }

    #[test]
    fn seg_attention_builds_are_bit_identical() {
        for (segs, heads, dk) in [
            (vec![3usize, 1, 5], 2, 2),
            (vec![7, 9, 2, 11], 4, 16),
            (vec![13], 1, 5),
        ] {
            let (qkv, mask, segs) = attention_case(&segs, heads, dk);
            let op = SegAttention {
                qkv: &qkv,
                mask: &mask,
                segs: &segs,
                heads,
                scale: 0.25,
            };
            let g = ragged_matrix(qkv.rows, heads * dk, 0.2);
            let run = |build: Build| {
                let mut attn = vec![Matrix::zeros(qkv.rows, mask.cols); heads];
                let mut out = Matrix::zeros(qkv.rows, heads * dk);
                dispatch!(build, seg_mha_forward(&op, &mut out, &mut attn));
                let mut gqkv = Matrix::zeros(qkv.rows, qkv.cols);
                dispatch!(build, seg_mha_backward(&op, &attn, &g, &mut gqkv));
                // Saving the weights changes nothing about the output.
                let mut bare = Matrix::zeros(qkv.rows, heads * dk);
                dispatch!(build, seg_mha_forward(&op, &mut bare, &mut []));
                assert_eq!(bits(&bare), bits(&out), "{build:?}");
                (bits(&out), bits(&gqkv))
            };
            let want = run(Build::Portable);
            for build in builds() {
                assert_eq!(run(build), want, "{build:?} {segs:?}");
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
