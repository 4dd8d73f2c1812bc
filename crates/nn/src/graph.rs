//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape of operations recorded during one forward pass;
//! [`Graph::backward`] replays it in reverse, accumulating gradients into the
//! tape and into the [`ParamSet`] for parameter leaves. The op set is what
//! the FOSS models need: dense algebra, attention building blocks
//! (matmul / transpose / masked softmax), embedding gathers, and the
//! pointwise functions used by PPO and the asymmetric loss. Four ops no
//! model records stay as references the fused kernels are tested against:
//! `add_row_broadcast` and `mean_rows`, `tanh`, and the `seg_attn_*` trio.

use crate::matrix::{dot, Matrix, SegAttention};
use crate::params::{GradSink, ParamId, ParamSet};

/// Gradient entries smaller than this (2⁻¹⁰⁰ ≈ 7.9e-31) are flushed to zero
/// on their way into the tape.
///
/// A well-trained focal loss drives whole rows of `d loss / d logits` below
/// `f32::MIN_POSITIVE`, and every multiply-accumulate that touches a
/// subnormal costs on the order of a hundred normal ones. 2⁻¹⁰⁰ is the
/// threshold at which a *kept* gradient times any operand ≥ 2⁻²⁶ is still
/// normal, so the products downstream stay normal too. Far below anything
/// Adam can see (its second moment squares the gradient; 2⁻²⁰⁰ is zero in
/// `f32`). Done here in portable arithmetic and not through the CPU's
/// flush-to-zero mode: Rust defines float arithmetic only under the default
/// floating-point environment, and results would differ per architecture.
const GRAD_FLUSH: f32 = f32::from_bits((127 - 100) << 23);

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    MatMulBias {
        x: Var,
        w: Var,
        b: Var,
    },
    SliceCols(Var, usize, usize),
    Transpose(Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    AddRowBroadcast(Var, Var),
    Relu(Var),
    Tanh(Var),
    Exp(Var),
    PowConst(Var, f32),
    Clamp(Var, f32, f32),
    MinElem(Var, Var),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
    ConcatCols(Vec<Var>),
    Gather(Var, Vec<usize>),
    PickPerRow(Var, Vec<usize>),
    MeanRows(Var),
    SumAll(Var),
    MeanAll(Var),
    LayerNormRows {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    AddLayerNormRows {
        a: Var,
        b: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    SegAttnScores {
        q: Var,
        k: Var,
        segs: Vec<usize>,
    },
    SegAttnScoresMasked {
        q: Var,
        k: Var,
        mask: Var,
        segs: Vec<usize>,
        scale: f32,
    },
    SegAttnApply {
        attn: Var,
        v: Var,
        segs: Vec<usize>,
    },
    SegMultiHeadAttention {
        qkv: Var,
        mask: Var,
        segs: Vec<usize>,
        heads: usize,
        scale: f32,
        /// Per-head softmax weights saved by the forward pass (`ΣL×Lmax`
        /// each) so backward need not re-run the masked softmax; none on an
        /// inference tape.
        attn: Vec<Matrix>,
    },
    SegMeanRows(Var, Vec<usize>),
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
    needs_grad: bool,
}

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    inference: bool,
}

impl Graph {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tape that will only ever run forward: ops skip the auxiliary state
    /// they would otherwise save for backward (e.g. attention softmax
    /// weights). [`Graph::backward`] on such a tape panics.
    pub fn inference() -> Self {
        Self {
            nodes: Vec::new(),
            inference: true,
        }
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        let needs_grad = match &op {
            Op::Leaf => false,
            Op::Param(_) => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::MulElem(a, b)
            | Op::MinElem(a, b)
            | Op::AddRowBroadcast(a, b) => self.needs(*a) || self.needs(*b),
            Op::Transpose(a)
            | Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::PowConst(a, _)
            | Op::Clamp(a, _, _)
            | Op::SoftmaxRows(a)
            | Op::LogSoftmaxRows(a)
            | Op::Gather(a, _)
            | Op::PickPerRow(a, _)
            | Op::MeanRows(a)
            | Op::SumAll(a)
            | Op::MeanAll(a) => self.needs(*a),
            Op::ConcatCols(vs) => vs.iter().any(|&v| self.needs(v)),
            Op::LayerNormRows { x, gamma, beta, .. } => {
                self.needs(*x) || self.needs(*gamma) || self.needs(*beta)
            }
            Op::MatMulBias { x, w, b } => self.needs(*x) || self.needs(*w) || self.needs(*b),
            Op::SliceCols(a, _, _) => self.needs(*a),
            Op::AddLayerNormRows {
                a, b, gamma, beta, ..
            } => self.needs(*a) || self.needs(*b) || self.needs(*gamma) || self.needs(*beta),
            Op::SegAttnScores { q: a, k: b, .. }
            | Op::SegAttnScoresMasked { q: a, k: b, .. }
            | Op::SegAttnApply { attn: a, v: b, .. } => self.needs(*a) || self.needs(*b),
            Op::SegMultiHeadAttention { qkv, .. } => self.needs(*qkv),
            Op::SegMeanRows(a, _) => self.needs(*a),
        };
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// A constant input (no gradient): data batches, masks, targets.
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(Op::Leaf, m)
    }

    /// A parameter leaf; its gradient flows into `set` on backward.
    pub fn param(&mut self, id: ParamId, set: &ParamSet) -> Var {
        self.push(Op::Param(id), set.value(id).clone())
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Fused linear layer `x @ w + b` (`b` a `1×N` row bias): the output is
    /// initialised with the broadcast bias and the product accumulates into
    /// it, saving the intermediate matrix and extra pass an explicit
    /// matmul-then-broadcast pair would spend.
    pub fn matmul_bias(&mut self, x: Var, w: Var, b: Var) -> Var {
        let (xm, wm, bm) = (self.value(x), self.value(w), self.value(b));
        assert_eq!(bm.rows, 1, "bias must be a row vector");
        assert_eq!(bm.cols, wm.cols, "bias width mismatch");
        let mut out = Matrix::zeros(xm.rows, wm.cols);
        for r in 0..out.rows {
            out.data[r * out.cols..(r + 1) * out.cols].copy_from_slice(&bm.data);
        }
        xm.matmul_acc_into(wm, &mut out);
        self.push(Op::MatMulBias { x, w, b }, out)
    }

    /// Copy columns `[start, start+len)` → an `R×len` matrix (e.g. carving
    /// one head's Q/K/V panel out of a packed projection).
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let m = self.value(a);
        assert!(start + len <= m.cols, "column slice out of range");
        let mut out = Matrix::zeros(m.rows, len);
        for r in 0..m.rows {
            out.data[r * len..(r + 1) * len]
                .copy_from_slice(&m.data[r * m.cols + start..r * m.cols + start + len]);
        }
        self.push(Op::SliceCols(a, start, len), out)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a), v)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(Op::MulElem(a, b), v)
    }

    /// Elementwise `min(a, b)` (PPO clipped surrogate).
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), f32::min);
        self.push(Op::MinElem(a, b), v)
    }

    /// `a * c` for scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    /// Broadcast-add a `1×D` row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        assert_eq!(bm.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(am.cols, bm.cols, "broadcast width mismatch");
        let mut out = am.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += bm.data[c];
            }
        }
        self.push(Op::AddRowBroadcast(a, b), out)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Elementwise `a^p` for `a ≥ 0` (focal-loss decay terms).
    pub fn pow_const(&mut self, a: Var, p: f32) -> Var {
        let v = self.value(a).map(|x| x.max(0.0).powf(p));
        self.push(Op::PowConst(a, p), v)
    }

    /// Elementwise clamp to `[lo, hi]`; gradient is zero outside.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let v = self.value(a).map(|x| x.clamp(lo, hi));
        self.push(Op::Clamp(a, lo, hi), v)
    }

    /// Row-wise softmax. Add a large-negative mask beforehand to exclude
    /// entries (attention masks, action masks).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).log_softmax_rows();
        self.push(Op::LogSoftmaxRows(a), v)
    }

    /// Concatenate along columns.
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty());
        let rows = self.value(vars[0]).rows;
        let cols: usize = vars.iter().map(|&v| self.value(v).cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for &v in vars {
            let m = self.value(v);
            assert_eq!(m.rows, rows, "concat_cols row mismatch");
            for r in 0..rows {
                out.data[r * cols + offset..r * cols + offset + m.cols].copy_from_slice(m.row(r));
            }
            offset += m.cols;
        }
        self.push(Op::ConcatCols(vars.to_vec()), out)
    }

    /// Gather rows of `table` by `indices` (embedding lookup).
    pub fn gather(&mut self, table: Var, indices: &[usize]) -> Var {
        let t = self.value(table);
        let mut out = Matrix::zeros(indices.len(), t.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.data[r * t.cols..(r + 1) * t.cols].copy_from_slice(t.row(i));
        }
        self.push(Op::Gather(table, indices.to_vec()), out)
    }

    /// `out[r, 0] = a[r, indices[r]]` — per-row element selection
    /// (log-probability of the chosen action).
    pub fn pick_per_row(&mut self, a: Var, indices: &[usize]) -> Var {
        let m = self.value(a);
        assert_eq!(m.rows, indices.len(), "one index per row required");
        let mut out = Matrix::zeros(m.rows, 1);
        for (r, &c) in indices.iter().enumerate() {
            out.data[r] = m.get(r, c);
        }
        self.push(Op::PickPerRow(a, indices.to_vec()), out)
    }

    /// Mean over rows → `1×D` (sequence pooling).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let mut out = Matrix::zeros(1, m.cols);
        for r in 0..m.rows {
            for c in 0..m.cols {
                out.data[c] += m.get(r, c);
            }
        }
        for v in &mut out.data {
            *v /= m.rows as f32;
        }
        self.push(Op::MeanRows(a), out)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).sum());
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let v = Matrix::scalar(m.sum() / m.data.len() as f32);
        self.push(Op::MeanAll(a), v)
    }

    /// Row-wise layer normalisation with learnable `gamma`/`beta` (`1×D`).
    pub fn layer_norm_rows(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (xm, gm, bm) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!(gm.rows, 1);
        assert_eq!(bm.rows, 1);
        assert_eq!(gm.cols, xm.cols);
        let mut out = xm.clone();
        for r in 0..xm.rows {
            let row = xm.row(r);
            let mean = row.iter().sum::<f32>() / row.len() as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (c, &xv) in row.iter().enumerate() {
                let xhat = (xv - mean) * inv;
                out.data[r * xm.cols + c] = gm.data[c] * xhat + bm.data[c];
            }
        }
        self.push(
            Op::LayerNormRows {
                x,
                gamma,
                beta,
                eps,
            },
            out,
        )
    }

    /// Fused residual + row-wise layer norm: `LayerNorm(a + b)` without
    /// materialising the sum (the transformer-block residual pattern). The
    /// per-row arithmetic matches `add` followed by
    /// [`Graph::layer_norm_rows`] exactly.
    pub fn add_layer_norm_rows(&mut self, a: Var, b: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (am, bm2, gm, bm) = (
            self.value(a),
            self.value(b),
            self.value(gamma),
            self.value(beta),
        );
        assert_eq!(
            (am.rows, am.cols),
            (bm2.rows, bm2.cols),
            "residual shape mismatch"
        );
        assert_eq!(gm.rows, 1);
        assert_eq!(bm.rows, 1);
        assert_eq!(gm.cols, am.cols);
        let d = am.cols;
        let mut out = Matrix::zeros(am.rows, d);
        let mut sum_row = vec![0.0f32; d];
        for r in 0..am.rows {
            for ((s, &x), &y) in sum_row
                .iter_mut()
                .zip(&am.data[r * d..(r + 1) * d])
                .zip(&bm2.data[r * d..(r + 1) * d])
            {
                *s = x + y;
            }
            let mean = sum_row.iter().sum::<f32>() / d as f32;
            let var = sum_row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (c, &xv) in sum_row.iter().enumerate() {
                let xhat = (xv - mean) * inv;
                out.data[r * d + c] = gm.data[c] * xhat + bm.data[c];
            }
        }
        self.push(
            Op::AddLayerNormRows {
                a,
                b,
                gamma,
                beta,
                eps,
            },
            out,
        )
    }

    /// Per-segment attention scores over a stacked batch.
    ///
    /// `q` and `k` hold `B` variable-length sequences stacked along rows
    /// (`segs[s]` rows each, `ΣL` total). The result is the block-diagonal of
    /// `q @ k^T` laid out compactly: row `base+i` holds
    /// `q_s[i] · k_s[j]` in columns `0..segs[s]`, zero in the padding columns
    /// up to `max(segs)`. Each segment only ever reads its own rows, so batch
    /// results are bit-identical to single-sequence results.
    ///
    /// Ragged batches must add a mask that blocks the padding columns (e.g.
    /// from [`crate::layers::segment_additive_mask`]) before any row softmax
    /// — a zero-filled padding column would otherwise receive softmax mass.
    /// [`Graph::seg_attn_scores_masked`] folds that mask in directly.
    pub fn seg_attn_scores(&mut self, q: Var, k: Var, segs: &[usize]) -> Var {
        let (qm, km) = (self.value(q), self.value(k));
        let total: usize = segs.iter().sum();
        assert_eq!(qm.rows, total, "segment lengths must cover q");
        assert_eq!(km.rows, total, "segment lengths must cover k");
        assert_eq!(qm.cols, km.cols, "q/k width mismatch");
        let d = qm.cols;
        let lmax = segs.iter().copied().max().unwrap_or(0);
        let mut out = Matrix::zeros(total, lmax);
        let mut base = 0;
        for &l in segs {
            for i in 0..l {
                let qi = &qm.data[(base + i) * d..(base + i + 1) * d];
                let orow = &mut out.data[(base + i) * lmax..(base + i) * lmax + l];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = dot(qi, &km.data[(base + j) * d..(base + j + 1) * d]);
                }
            }
            base += l;
        }
        self.push(
            Op::SegAttnScores {
                q,
                k,
                segs: segs.to_vec(),
            },
            out,
        )
    }

    /// Fused, mask-aware attention scores: like [`Graph::seg_attn_scores`]
    /// followed by a scale and an additive mask, but positions whose `mask`
    /// entry is non-zero (blocked, `-1e9`) skip the dot product entirely and
    /// emit the mask value itself. After the row softmax (whose underflow
    /// shortcut turns them into exact `+0.0`) the result is bit-identical to
    /// the unfused `scale → add-mask` pipeline, while sparse reachability
    /// masks skip most of the score work. `mask` must be a constant input
    /// (`ΣL×max(segs)`, `0.0` = attend).
    pub fn seg_attn_scores_masked(
        &mut self,
        q: Var,
        k: Var,
        mask: Var,
        segs: &[usize],
        scale: f32,
    ) -> Var {
        let (qm, km, mm) = (self.value(q), self.value(k), self.value(mask));
        let total: usize = segs.iter().sum();
        let lmax = segs.iter().copied().max().unwrap_or(0);
        assert_eq!(qm.rows, total, "segment lengths must cover q");
        assert_eq!(km.rows, total, "segment lengths must cover k");
        assert_eq!(qm.cols, km.cols, "q/k width mismatch");
        assert_eq!((mm.rows, mm.cols), (total, lmax), "mask must be ΣL×Lmax");
        assert!(
            !self.needs(mask),
            "attention mask must not require gradients"
        );
        let d = qm.cols;
        let mut out = mm.clone();
        let mut base = 0;
        for &l in segs {
            for i in 0..l {
                let qi = &qm.data[(base + i) * d..(base + i + 1) * d];
                let orow = &mut out.data[(base + i) * lmax..(base + i) * lmax + l];
                for (j, o) in orow.iter_mut().enumerate() {
                    if *o == 0.0 {
                        *o = dot(qi, &km.data[(base + j) * d..(base + j + 1) * d]) * scale;
                    }
                }
            }
            base += l;
        }
        self.push(
            Op::SegAttnScoresMasked {
                q,
                k,
                mask,
                segs: segs.to_vec(),
                scale,
            },
            out,
        )
    }

    /// Per-segment `attn_s @ v_s` for scores produced by
    /// [`Graph::seg_attn_scores`] (after mask + softmax): row `base+i` of the
    /// output is `Σ_j attn[base+i][j] · v[base+j]` over the segment's own
    /// rows. Padding columns of `attn` are ignored.
    pub fn seg_attn_apply(&mut self, attn: Var, v: Var, segs: &[usize]) -> Var {
        let (am, vm) = (self.value(attn), self.value(v));
        let total: usize = segs.iter().sum();
        let lmax = segs.iter().copied().max().unwrap_or(0);
        assert_eq!(am.rows, total, "segment lengths must cover attn");
        assert_eq!(vm.rows, total, "segment lengths must cover v");
        assert_eq!(am.cols, lmax, "attn must be padded to max segment length");
        let d = vm.cols;
        let mut out = Matrix::zeros(total, d);
        let mut base = 0;
        for &l in segs {
            for i in 0..l {
                let arow = &am.data[(base + i) * lmax..(base + i) * lmax + l];
                for (j, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        // Masked positions are *structurally* zero after the
                        // masked softmax; skipping them changes no bits
                        // (adding ±0·v is the identity) and skips the bulk
                        // of the work for sparse reachability masks.
                        continue;
                    }
                    let vrow = &vm.data[(base + j) * d..(base + j + 1) * d];
                    let orow = &mut out.data[(base + i) * d..(base + i + 1) * d];
                    for (o, &vv) in orow.iter_mut().zip(vrow) {
                        *o += a * vv;
                    }
                }
            }
            base += l;
        }
        self.push(
            Op::SegAttnApply {
                attn,
                v,
                segs: segs.to_vec(),
            },
            out,
        )
    }

    /// Fully-fused multi-head attention over a stacked segment batch.
    ///
    /// `qkv` is the packed projection (`ΣL × 3·d_model`, laid out
    /// `[Q | K | V]` with heads side by side inside each section); `mask` the
    /// additive reachability mask (`ΣL × max(segs)`, `0.0` = attend). For
    /// every head the op computes masked scores, a numerically-stabilised
    /// softmax (in a stack-local row buffer — no intermediate matrices) and
    /// the weighted value sum, writing each head's output into its own
    /// column window of the `ΣL × d_model` result — already in "concat"
    /// layout for the output projection. Each row depends only on its own
    /// segment, so batched results are bit-identical to singleton-batch
    /// results; versus the unfused `slice → scores → softmax → apply` chain
    /// the values agree to fp tolerance (the fused kernel accumulates scores
    /// feature-major, so low-order bits may differ).
    pub fn seg_multi_head_attention(
        &mut self,
        qkv: Var,
        mask: Var,
        segs: &[usize],
        heads: usize,
        scale: f32,
    ) -> Var {
        let (qm, mm) = (self.value(qkv), self.value(mask));
        let total: usize = segs.iter().sum();
        let lmax = segs.iter().copied().max().unwrap_or(0);
        let w3 = qm.cols;
        assert_eq!(w3 % 3, 0, "qkv width must be 3·d_model");
        let d_model = w3 / 3;
        assert_eq!(d_model % heads, 0, "heads must divide d_model");
        assert_eq!(qm.rows, total, "segment lengths must cover qkv");
        assert_eq!((mm.rows, mm.cols), (total, lmax), "mask must be ΣL×Lmax");
        assert!(
            !self.needs(mask),
            "attention mask must not require gradients"
        );
        let mut attn: Vec<Matrix> = if self.inference {
            Vec::new()
        } else {
            (0..heads).map(|_| Matrix::zeros(total, lmax)).collect()
        };
        let out = SegAttention {
            qkv: qm,
            mask: mm,
            segs,
            heads,
            scale,
        }
        .forward(&mut attn);
        self.push(
            Op::SegMultiHeadAttention {
                qkv,
                mask,
                segs: segs.to_vec(),
                heads,
                scale,
                attn,
            },
            out,
        )
    }

    /// Mean over each segment's rows → `B×D` (batched sequence pooling).
    /// Segment `s` of the output equals [`Graph::mean_rows`] of that
    /// segment's rows, bit for bit.
    pub fn seg_mean_rows(&mut self, a: Var, segs: &[usize]) -> Var {
        let m = self.value(a);
        let total: usize = segs.iter().sum();
        assert_eq!(m.rows, total, "segment lengths must cover input");
        assert!(segs.iter().all(|&l| l > 0), "empty segment");
        let d = m.cols;
        let mut out = Matrix::zeros(segs.len(), d);
        let mut base = 0;
        for (s, &l) in segs.iter().enumerate() {
            let orow = &mut out.data[s * d..(s + 1) * d];
            for i in 0..l {
                let row = &m.data[(base + i) * d..(base + i + 1) * d];
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o += v;
                }
            }
            for o in orow.iter_mut() {
                *o /= l as f32;
            }
            base += l;
        }
        self.push(Op::SegMeanRows(a, segs.to_vec()), out)
    }

    /// Run reverse-mode accumulation from scalar node `loss`; parameter
    /// gradients are accumulated into `set`.
    pub fn backward(&mut self, loss: Var, set: &mut ParamSet) {
        self.backward_into(loss, set);
    }

    /// Like [`Graph::backward`] but generic over the gradient destination:
    /// pass a [`crate::params::GradStore`] to collect gradients without
    /// mutating shared optimiser state (parallel training workers).
    pub fn backward_into(&mut self, loss: Var, sink: &mut impl GradSink) {
        assert!(!self.inference, "cannot run backward on an inference tape");
        {
            let n = &self.nodes[loss.0];
            assert_eq!(
                (n.value.rows, n.value.cols),
                (1, 1),
                "backward requires a scalar loss"
            );
        }
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));
        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            // Every consumer of node `i` comes later on the tape, so its
            // gradient is complete here and nothing reads it again: moved
            // out, not copied.
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            // Moved out and put back after the match: a clone would copy index
            // vectors and the attention op's saved softmax matrices per visit.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            match op {
                Op::Leaf => {}
                Op::Param(id) => sink.accumulate(id, &g),
                Op::MatMul(a, b) => {
                    let ga = g.matmul_nt(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.matmul_tn(&g);
                    self.accum(a, ga);
                    self.accum(b, gb);
                }
                Op::MatMulBias { x, w, b } => {
                    let gx = g.matmul_nt(&self.nodes[w.0].value);
                    let gw = self.nodes[x.0].value.matmul_tn(&g);
                    let mut gb = Matrix::zeros(1, g.cols);
                    for grow in g.data.chunks_exact(g.cols) {
                        for (o, &v) in gb.data.iter_mut().zip(grow) {
                            *o += v;
                        }
                    }
                    self.accum(x, gx);
                    self.accum(w, gw);
                    self.accum(b, gb);
                }
                Op::SliceCols(a, start, len) => {
                    let m = &self.nodes[a.0].value;
                    let mut ga = Matrix::zeros(m.rows, m.cols);
                    for r in 0..m.rows {
                        ga.data[r * m.cols + start..r * m.cols + start + len]
                            .copy_from_slice(&g.data[r * len..(r + 1) * len]);
                    }
                    self.accum(a, ga);
                }
                Op::Transpose(a) => self.accum(a, g.transpose()),
                Op::Add(a, b) => {
                    self.accum(a, g.clone());
                    self.accum(b, g);
                }
                Op::Sub(a, b) => {
                    self.accum(a, g.clone());
                    self.accum(b, g.map(|x| -x));
                }
                Op::MulElem(a, b) => {
                    let ga = g.zip(&self.nodes[b.0].value, |x, y| x * y);
                    let gb = g.zip(&self.nodes[a.0].value, |x, y| x * y);
                    self.accum(a, ga);
                    self.accum(b, gb);
                }
                Op::MinElem(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let ga = g
                        .clone()
                        .zip(&av.zip(bv, |x, y| (x <= y) as u8 as f32), |gx, m| gx * m);
                    let gb = g.zip(&av.zip(bv, |x, y| (x > y) as u8 as f32), |gx, m| gx * m);
                    self.accum(a, ga);
                    self.accum(b, gb);
                }
                Op::Scale(a, c) => self.accum(a, g.map(|x| x * c)),
                Op::AddRowBroadcast(a, b) => {
                    let mut gb = Matrix::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            gb.data[c] += g.get(r, c);
                        }
                    }
                    self.accum(a, g);
                    self.accum(b, gb);
                }
                Op::Relu(a) => {
                    let mut ga = g;
                    for (gx, &x) in ga.data.iter_mut().zip(&self.nodes[a.0].value.data) {
                        if x <= 0.0 || x.is_nan() {
                            *gx = 0.0;
                        }
                    }
                    self.accum(a, ga);
                }
                Op::Tanh(a) => {
                    let ga = g.zip(&self.nodes[i].value, |gx, y| gx * (1.0 - y * y));
                    self.accum(a, ga);
                }
                Op::Exp(a) => {
                    let ga = g.zip(&self.nodes[i].value, |gx, y| gx * y);
                    self.accum(a, ga);
                }
                Op::PowConst(a, p) => {
                    let ga = g.zip(&self.nodes[a.0].value, |gx, x| {
                        gx * p * x.max(1e-12).powf(p - 1.0)
                    });
                    self.accum(a, ga);
                }
                Op::Clamp(a, lo, hi) => {
                    let ga = g.zip(&self.nodes[a.0].value, |gx, x| {
                        if (lo..=hi).contains(&x) {
                            gx
                        } else {
                            0.0
                        }
                    });
                    self.accum(a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[i].value;
                    let mut ga = Matrix::zeros(y.rows, y.cols);
                    for r in 0..y.rows {
                        let (grow, yrow) = (g.row(r), y.row(r));
                        let dot: f32 = grow.iter().zip(yrow).map(|(g, y)| g * y).sum();
                        let garow = &mut ga.data[r * y.cols..(r + 1) * y.cols];
                        for ((o, &gv), &yv) in garow.iter_mut().zip(grow).zip(yrow) {
                            *o = yv * (gv - dot);
                        }
                    }
                    self.accum(a, ga);
                }
                Op::LogSoftmaxRows(a) => {
                    let sm = self.nodes[a.0].value.softmax_rows();
                    let mut ga = Matrix::zeros(sm.rows, sm.cols);
                    for r in 0..sm.rows {
                        let (grow, smrow) = (g.row(r), sm.row(r));
                        let gsum: f32 = grow.iter().sum();
                        let garow = &mut ga.data[r * sm.cols..(r + 1) * sm.cols];
                        for ((o, &gv), &p) in garow.iter_mut().zip(grow).zip(smrow) {
                            *o = gv - p * gsum;
                        }
                    }
                    self.accum(a, ga);
                }
                Op::ConcatCols(ref vars) => {
                    let mut offset = 0;
                    for &v in vars {
                        let m = &self.nodes[v.0].value;
                        let mut gv = Matrix::zeros(m.rows, m.cols);
                        for (gvrow, grow) in gv
                            .data
                            .chunks_exact_mut(m.cols.max(1))
                            .zip(g.data.chunks_exact(g.cols.max(1)))
                        {
                            gvrow.copy_from_slice(&grow[offset..offset + m.cols]);
                        }
                        offset += m.cols;
                        self.accum(v, gv);
                    }
                }
                Op::Gather(table, ref indices) => {
                    let t = &self.nodes[table.0].value;
                    let mut gt = Matrix::zeros(t.rows, t.cols);
                    for (&idx, grow) in indices.iter().zip(g.data.chunks_exact(t.cols.max(1))) {
                        let gtrow = &mut gt.data[idx * t.cols..(idx + 1) * t.cols];
                        for (o, &v) in gtrow.iter_mut().zip(grow) {
                            *o += v;
                        }
                    }
                    self.accum(table, gt);
                }
                Op::PickPerRow(a, ref indices) => {
                    let m = &self.nodes[a.0].value;
                    let mut ga = Matrix::zeros(m.rows, m.cols);
                    for (r, &c) in indices.iter().enumerate() {
                        ga.set(r, c, g.get(r, 0));
                    }
                    self.accum(a, ga);
                }
                Op::MeanRows(a) => {
                    let m = &self.nodes[a.0].value;
                    let mut ga = Matrix::zeros(m.rows, m.cols);
                    let scale = 1.0 / m.rows as f32;
                    for r in 0..m.rows {
                        for c in 0..m.cols {
                            ga.set(r, c, g.get(0, c) * scale);
                        }
                    }
                    self.accum(a, ga);
                }
                Op::SumAll(a) => {
                    let m = &self.nodes[a.0].value;
                    self.accum(a, Matrix::full(m.rows, m.cols, g.get(0, 0)));
                }
                Op::MeanAll(a) => {
                    let m = &self.nodes[a.0].value;
                    let v = g.get(0, 0) / m.data.len() as f32;
                    self.accum(a, Matrix::full(m.rows, m.cols, v));
                }
                Op::LayerNormRows {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let xm = &self.nodes[x.0].value;
                    let gm = &self.nodes[gamma.0].value;
                    let mut grads = LayerNormGrads::new(xm.rows, xm.cols);
                    for r in 0..xm.rows {
                        grads.row(r, xm.row(r), g.row(r), &gm.data, eps);
                    }
                    self.accum(x, grads.gx);
                    self.accum(gamma, grads.ggamma);
                    self.accum(beta, grads.gbeta);
                }
                Op::AddLayerNormRows {
                    a,
                    b,
                    gamma,
                    beta,
                    eps,
                } => {
                    // Same maths as LayerNormRows with x = a + b recomputed
                    // row by row; the input gradient flows to both residual
                    // operands unchanged.
                    let am = &self.nodes[a.0].value;
                    let bm2 = &self.nodes[b.0].value;
                    let gm = &self.nodes[gamma.0].value;
                    let cols = am.cols;
                    let mut grads = LayerNormGrads::new(am.rows, cols);
                    let mut sum_row = vec![0.0f32; cols];
                    for r in 0..am.rows {
                        for ((s, &x), &y) in sum_row.iter_mut().zip(am.row(r)).zip(bm2.row(r)) {
                            *s = x + y;
                        }
                        grads.row(r, &sum_row, g.row(r), &gm.data, eps);
                    }
                    self.accum(a, grads.gx.clone());
                    self.accum(b, grads.gx);
                    self.accum(gamma, grads.ggamma);
                    self.accum(beta, grads.gbeta);
                }
                Op::SegAttnScores { q, k, ref segs } => {
                    let qm = &self.nodes[q.0].value;
                    let km = &self.nodes[k.0].value;
                    let d = qm.cols;
                    let lmax = segs.iter().copied().max().unwrap_or(0);
                    let mut gq = Matrix::zeros(qm.rows, d);
                    let mut gk = Matrix::zeros(km.rows, d);
                    let mut base = 0;
                    for &l in segs {
                        for i in 0..l {
                            let grow = &g.data[(base + i) * lmax..(base + i) * lmax + l];
                            for (j, &gij) in grow.iter().enumerate() {
                                let krow = &km.data[(base + j) * d..(base + j + 1) * d];
                                let qrow = &qm.data[(base + i) * d..(base + i + 1) * d];
                                let gqrow = &mut gq.data[(base + i) * d..(base + i + 1) * d];
                                for (o, &kv) in gqrow.iter_mut().zip(krow) {
                                    *o += gij * kv;
                                }
                                let gkrow = &mut gk.data[(base + j) * d..(base + j + 1) * d];
                                for (o, &qv) in gkrow.iter_mut().zip(qrow) {
                                    *o += gij * qv;
                                }
                            }
                        }
                        base += l;
                    }
                    self.accum(q, gq);
                    self.accum(k, gk);
                }
                Op::SegAttnScoresMasked {
                    q,
                    k,
                    mask,
                    ref segs,
                    scale,
                } => {
                    let qm = &self.nodes[q.0].value;
                    let km = &self.nodes[k.0].value;
                    let mm = &self.nodes[mask.0].value;
                    let d = qm.cols;
                    let lmax = segs.iter().copied().max().unwrap_or(0);
                    let mut gq = Matrix::zeros(qm.rows, d);
                    let mut gk = Matrix::zeros(km.rows, d);
                    let mut base = 0;
                    for &l in segs {
                        for i in 0..l {
                            let grow = &g.data[(base + i) * lmax..(base + i) * lmax + l];
                            let mrow = &mm.data[(base + i) * lmax..(base + i) * lmax + l];
                            for (j, (&gij, &mij)) in grow.iter().zip(mrow).enumerate() {
                                if mij != 0.0 {
                                    // Blocked position: the forward emitted
                                    // the mask constant, not a dot product,
                                    // so the output there has zero partials
                                    // w.r.t. q and k.
                                    continue;
                                }
                                let gs = gij * scale;
                                let krow = &km.data[(base + j) * d..(base + j + 1) * d];
                                let qrow = &qm.data[(base + i) * d..(base + i + 1) * d];
                                let gqrow = &mut gq.data[(base + i) * d..(base + i + 1) * d];
                                for (o, &kv) in gqrow.iter_mut().zip(krow) {
                                    *o += gs * kv;
                                }
                                let gkrow = &mut gk.data[(base + j) * d..(base + j + 1) * d];
                                for (o, &qv) in gkrow.iter_mut().zip(qrow) {
                                    *o += gs * qv;
                                }
                            }
                        }
                        base += l;
                    }
                    self.accum(q, gq);
                    self.accum(k, gk);
                }
                Op::SegAttnApply { attn, v, ref segs } => {
                    let am = &self.nodes[attn.0].value;
                    let vm = &self.nodes[v.0].value;
                    let d = vm.cols;
                    let lmax = segs.iter().copied().max().unwrap_or(0);
                    let mut ga = Matrix::zeros(am.rows, am.cols);
                    let mut gv = Matrix::zeros(vm.rows, d);
                    let mut base = 0;
                    for &l in segs {
                        for i in 0..l {
                            let grow = &g.data[(base + i) * d..(base + i + 1) * d];
                            let garow = &mut ga.data[(base + i) * lmax..(base + i) * lmax + l];
                            for (j, o) in garow.iter_mut().enumerate() {
                                *o = dot(grow, &vm.data[(base + j) * d..(base + j + 1) * d]);
                            }
                            let arow = &am.data[(base + i) * lmax..(base + i) * lmax + l];
                            for (j, &aij) in arow.iter().enumerate() {
                                if aij == 0.0 {
                                    continue; // structurally-masked: ±0·g adds nothing
                                }
                                let gvrow = &mut gv.data[(base + j) * d..(base + j + 1) * d];
                                for (o, &gg) in gvrow.iter_mut().zip(grow) {
                                    *o += aij * gg;
                                }
                            }
                        }
                        base += l;
                    }
                    self.accum(attn, ga);
                    self.accum(v, gv);
                }
                Op::SegMultiHeadAttention {
                    qkv,
                    mask,
                    ref segs,
                    heads,
                    scale,
                    ref attn,
                } => {
                    let gqkv = SegAttention {
                        qkv: &self.nodes[qkv.0].value,
                        mask: &self.nodes[mask.0].value,
                        segs,
                        heads,
                        scale,
                    }
                    .backward(attn, &g);
                    self.accum(qkv, gqkv);
                }
                Op::SegMeanRows(a, ref segs) => {
                    let m = &self.nodes[a.0].value;
                    let d = m.cols;
                    let mut ga = Matrix::zeros(m.rows, d);
                    let mut base = 0;
                    for (s, &l) in segs.iter().enumerate() {
                        let scale = 1.0 / l as f32;
                        let grow = &g.data[s * d..(s + 1) * d];
                        for i in 0..l {
                            let garow = &mut ga.data[(base + i) * d..(base + i + 1) * d];
                            for (o, &gg) in garow.iter_mut().zip(grow) {
                                *o = gg * scale;
                            }
                        }
                        base += l;
                    }
                    self.accum(a, ga);
                }
            }
            self.nodes[i].op = op;
        }
    }

    /// The one place every backward gradient passes. Entries below
    /// [`GRAD_FLUSH`] in magnitude are stored as `0.0`, so no backward kernel
    /// ever multiplies a subnormal.
    fn accum(&mut self, v: Var, mut g: Matrix) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        for x in &mut g.data {
            // Written as a select so the loop vectorises.
            *x = if x.abs() < GRAD_FLUSH { 0.0 } else { *x };
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

/// Gradients of a row-wise layer norm, filled one row at a time by
/// [`LayerNormGrads::row`]; the two scratch rows are reused across rows.
struct LayerNormGrads {
    gx: Matrix,
    ggamma: Matrix,
    gbeta: Matrix,
    xhat: Vec<f32>,
    gxhat: Vec<f32>,
}

impl LayerNormGrads {
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            gx: Matrix::zeros(rows, cols),
            ggamma: Matrix::zeros(1, cols),
            gbeta: Matrix::zeros(1, cols),
            xhat: vec![0.0; cols],
            gxhat: vec![0.0; cols],
        }
    }

    /// Backward of row `r`, whose layer-norm input is `x` and upstream
    /// gradient `gy`: accumulates `ggamma` and `gbeta`, writes row `r` of
    /// `gx`.
    fn row(&mut self, r: usize, x: &[f32], gy: &[f32], gamma: &[f32], eps: f32) {
        let cols = x.len();
        let d = cols as f32;
        let mean = x.iter().sum::<f32>() / d;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
        let inv = 1.0 / (var + eps).sqrt();
        let (xhat, gxhat) = (&mut self.xhat, &mut self.gxhat);
        for (h, v) in xhat.iter_mut().zip(x) {
            *h = (v - mean) * inv;
        }
        for c in 0..cols {
            self.ggamma.data[c] += gy[c] * xhat[c];
            self.gbeta.data[c] += gy[c];
        }
        for ((h, &y), &w) in gxhat.iter_mut().zip(gy).zip(gamma) {
            *h = y * w;
        }
        let mean_gxhat = gxhat.iter().sum::<f32>() / d;
        let mean_gxhat_xhat = gxhat
            .iter()
            .zip(xhat.iter())
            .map(|(a, b)| a * b)
            .sum::<f32>()
            / d;
        let gx = &mut self.gx.data[r * cols..(r + 1) * cols];
        for c in 0..cols {
            gx[c] = inv * (gxhat[c] - mean_gxhat - xhat[c] * mean_gxhat_xhat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numeric gradient check: perturb each element of the single parameter
    /// and compare the finite difference to the analytic gradient.
    fn check_gradient(build: impl Fn(&mut Graph, Var) -> Var, init: Matrix, tol: f32) {
        let mut set = ParamSet::new();
        let id = set.alloc(init);
        // Analytic.
        let mut g = Graph::new();
        let p = g.param(id, &set);
        let loss = build(&mut g, p);
        set.zero_grad();
        g.backward(loss, &mut set);
        let analytic = set.grad(id).clone();
        // Numeric.
        let eps = 1e-3f32;
        let n = set.value(id).data.len();
        for i in 0..n {
            let orig = set.value(id).data[i];
            let eval = |set: &ParamSet| {
                let mut g = Graph::new();
                let p = g.param(id, set);
                let loss = build(&mut g, p);
                g.value(loss).get(0, 0)
            };
            set.value_mut(id).data[i] = orig + eps;
            let up = eval(&set);
            set.value_mut(id).data[i] = orig - eps;
            let down = eval(&set);
            set.value_mut(id).data[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.data[i];
            assert!(
                (numeric - a).abs() < tol * (1.0 + numeric.abs().max(a.abs())),
                "grad mismatch at {i}: numeric={numeric} analytic={a}"
            );
        }
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.random_range(-1.0..1.0f32))
                .collect(),
        )
    }

    #[test]
    fn grad_matmul_chain() {
        let w = rand_matrix(3, 4, 1);
        check_gradient(
            |g, p| {
                let x = g.input(rand_matrix(2, 3, 2));
                let y = g.matmul(x, p);
                let y = g.relu(y);
                g.sum_all(y)
            },
            w,
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_and_logsoftmax() {
        check_gradient(
            |g, p| {
                let s = g.softmax_rows(p);
                let t = g.input(rand_matrix(2, 4, 5));
                let m = g.mul(s, t);
                g.sum_all(m)
            },
            rand_matrix(2, 4, 3),
            1e-2,
        );
        check_gradient(
            |g, p| {
                let s = g.log_softmax_rows(p);
                let t = g.input(rand_matrix(2, 4, 6));
                let m = g.mul(s, t);
                g.sum_all(m)
            },
            rand_matrix(2, 4, 4),
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        check_gradient(
            |g, p| {
                let gamma = g.input(Matrix::full(1, 4, 1.2));
                let beta = g.input(Matrix::full(1, 4, -0.1));
                let y = g.layer_norm_rows(p, gamma, beta, 1e-5);
                let t = g.input(rand_matrix(3, 4, 8));
                let m = g.mul(y, t);
                g.sum_all(m)
            },
            rand_matrix(3, 4, 7),
            2e-2,
        );
    }

    #[test]
    fn grad_pointwise_ops() {
        check_gradient(
            |g, p| {
                let e = g.exp(p);
                let t = g.tanh(e);
                let s = g.scale(t, 0.5);
                g.mean_all(s)
            },
            rand_matrix(2, 3, 9),
            1e-2,
        );
    }

    #[test]
    fn grad_pow_const() {
        check_gradient(
            |g, p| {
                // keep inputs positive for powf
                let sp = g.softmax_rows(p);
                let pw = g.pow_const(sp, 2.5);
                g.sum_all(pw)
            },
            rand_matrix(2, 4, 10),
            2e-2,
        );
    }

    #[test]
    fn grad_gather_and_pick() {
        check_gradient(
            |g, p| {
                let rows = g.gather(p, &[0, 2, 2]);
                let picked = g.pick_per_row(rows, &[1, 0, 1]);
                g.sum_all(picked)
            },
            rand_matrix(3, 2, 11),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_and_broadcast() {
        check_gradient(
            |g, p| {
                let x = g.input(rand_matrix(2, 3, 12));
                let y = g.matmul(x, p); // 2×2
                let z = g.concat_cols(&[y, y]);
                let bias = g.input(rand_matrix(1, 4, 13));
                let z = g.add_row_broadcast(z, bias);
                let pooled = g.mean_rows(z);
                g.sum_all(pooled)
            },
            rand_matrix(3, 2, 14),
            1e-2,
        );
    }

    #[test]
    fn grad_min_and_clamp() {
        check_gradient(
            |g, p| {
                let c = g.clamp(p, -0.5, 0.5);
                let other = g.input(rand_matrix(2, 3, 15));
                let m = g.min_elem(c, other);
                g.sum_all(m)
            },
            rand_matrix(2, 3, 16),
            2e-2,
        );
    }

    #[test]
    fn grad_select_and_transpose() {
        check_gradient(
            |g, p| {
                let t = g.transpose(p);
                let sq = g.mul(t, t);
                g.sum_all(sq)
            },
            rand_matrix(3, 2, 17),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_rows_and_sub() {
        check_gradient(
            |g, p| {
                let a = g.scale(p, 2.0);
                let t = g.input(rand_matrix(2, 3, 18));
                let d = g.sub(a, t);
                let sq = g.mul(d, d);
                g.mean_all(sq)
            },
            rand_matrix(2, 3, 19),
            1e-2,
        );
    }

    #[test]
    fn grad_seg_attn_scores_and_apply() {
        // Two ragged segments (3 and 2 rows) through a toy attention:
        // scores → softmax → apply, all differentiated through the segment ops.
        let segs = [3usize, 2];
        check_gradient(
            |g, p| {
                let k = g.input(rand_matrix(5, 4, 21));
                let v = g.input(rand_matrix(5, 4, 22));
                let scores = g.seg_attn_scores(p, k, &segs);
                let sm = g.softmax_rows(scores);
                let out = g.seg_attn_apply(sm, v, &segs);
                let t = g.input(rand_matrix(5, 4, 23));
                let m = g.mul(out, t);
                g.sum_all(m)
            },
            rand_matrix(5, 4, 20),
            2e-2,
        );
        // Gradients w.r.t. k and v sides too.
        check_gradient(
            |g, p| {
                let q = g.input(rand_matrix(5, 4, 24));
                let scores = g.seg_attn_scores(q, p, &segs);
                let sm = g.softmax_rows(scores);
                let out = g.seg_attn_apply(sm, p, &segs);
                g.sum_all(out)
            },
            rand_matrix(5, 4, 25),
            2e-2,
        );
    }

    #[test]
    fn grad_matmul_bias_fused() {
        // Against each operand of the fused linear.
        check_gradient(
            |g, p| {
                let w = g.input(rand_matrix(3, 4, 71));
                let b = g.input(rand_matrix(1, 4, 72));
                let y = g.matmul_bias(p, w, b);
                let y = g.tanh(y);
                g.sum_all(y)
            },
            rand_matrix(2, 3, 70),
            1e-2,
        );
        check_gradient(
            |g, p| {
                let x = g.input(rand_matrix(2, 3, 73));
                let b = g.input(rand_matrix(1, 4, 74));
                let y = g.matmul_bias(x, p, b);
                g.sum_all(y)
            },
            rand_matrix(3, 4, 75),
            1e-2,
        );
        check_gradient(
            |g, p| {
                let x = g.input(rand_matrix(2, 3, 76));
                let w = g.input(rand_matrix(3, 4, 77));
                let y = g.matmul_bias(x, w, p);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            rand_matrix(1, 4, 78),
            1e-2,
        );
        // Value matches the unfused pipeline up to fp association.
        let mut g = Graph::new();
        let x = g.input(rand_matrix(2, 3, 79));
        let w = g.input(rand_matrix(3, 4, 80));
        let b = g.input(rand_matrix(1, 4, 81));
        let fused = g.matmul_bias(x, w, b);
        let mm = g.matmul(x, w);
        let unfused = g.add_row_broadcast(mm, b);
        for (a, e) in g
            .value(fused)
            .data
            .iter()
            .zip(&g.value(unfused).data.clone())
        {
            assert!((a - e).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_slice_cols() {
        check_gradient(
            |g, p| {
                let s = g.slice_cols(p, 1, 2);
                let t = g.input(rand_matrix(3, 2, 83));
                let m = g.mul(s, t);
                g.sum_all(m)
            },
            rand_matrix(3, 5, 82),
            1e-2,
        );
    }

    #[test]
    fn grad_add_layer_norm_fused() {
        check_gradient(
            |g, p| {
                let other = g.input(rand_matrix(3, 4, 85));
                let gamma = g.input(Matrix::full(1, 4, 1.1));
                let beta = g.input(Matrix::full(1, 4, 0.2));
                let y = g.add_layer_norm_rows(p, other, gamma, beta, 1e-5);
                let t = g.input(rand_matrix(3, 4, 86));
                let m = g.mul(y, t);
                g.sum_all(m)
            },
            rand_matrix(3, 4, 84),
            2e-2,
        );
        // Fused output equals add-then-norm exactly.
        let mut g = Graph::new();
        let a = g.input(rand_matrix(3, 4, 87));
        let b = g.input(rand_matrix(3, 4, 88));
        let gamma = g.input(Matrix::full(1, 4, 0.9));
        let beta = g.input(Matrix::full(1, 4, -0.3));
        let fused = g.add_layer_norm_rows(a, b, gamma, beta, 1e-5);
        let sum = g.add(a, b);
        let unfused = g.layer_norm_rows(sum, gamma, beta, 1e-5);
        assert_eq!(g.value(fused).data, g.value(unfused).data.clone());
    }

    #[test]
    fn grad_seg_attn_scores_masked() {
        // Ragged segments with a sparse mask; gradient must flow only
        // through unmasked positions, matching numeric differentiation.
        let segs = [3usize, 2];
        let mask = Matrix::from_rows(&[
            &[0.0, -1e9, 0.0],
            &[0.0, 0.0, -1e9],
            &[-1e9, 0.0, 0.0],
            &[0.0, 0.0, -1e9], // second segment: col 2 is ragged padding
            &[-1e9, 0.0, -1e9],
        ]);
        check_gradient(
            |g, p| {
                let k = g.input(rand_matrix(5, 4, 51));
                let v = g.input(rand_matrix(5, 4, 52));
                let mv = g.input(mask.clone());
                let scores = g.seg_attn_scores_masked(p, k, mv, &segs, 0.5);
                let sm = g.softmax_rows(scores);
                let out = g.seg_attn_apply(sm, v, &segs);
                let t = g.input(rand_matrix(5, 4, 53));
                let m = g.mul(out, t);
                g.sum_all(m)
            },
            rand_matrix(5, 4, 50),
            2e-2,
        );
        check_gradient(
            |g, p| {
                let q = g.input(rand_matrix(5, 4, 54));
                let mv = g.input(mask.clone());
                let scores = g.seg_attn_scores_masked(q, p, mv, &segs, 0.5);
                let sm = g.softmax_rows(scores);
                let out = g.seg_attn_apply(sm, p, &segs);
                g.sum_all(out)
            },
            rand_matrix(5, 4, 55),
            2e-2,
        );
    }

    #[test]
    fn masked_scores_match_unfused_pipeline() {
        let segs = [3usize, 2];
        let q = rand_matrix(5, 4, 60);
        let k = rand_matrix(5, 4, 61);
        let mask = Matrix::from_rows(&[
            &[0.0, -1e9, 0.0],
            &[0.0, 0.0, 0.0],
            &[-1e9, 0.0, 0.0],
            &[0.0, 0.0, -1e9],
            &[0.0, 0.0, -1e9],
        ]);
        let mut g1 = Graph::new();
        let (q1, k1) = (g1.input(q.clone()), g1.input(k.clone()));
        let m1 = g1.input(mask.clone());
        let fused = g1.seg_attn_scores_masked(q1, k1, m1, &segs, 0.25);
        let sm_fused = g1.softmax_rows(fused);
        let mut g2 = Graph::new();
        let (q2, k2) = (g2.input(q), g2.input(k));
        let m2 = g2.input(mask);
        let raw = g2.seg_attn_scores(q2, k2, &segs);
        let scaled = g2.scale(raw, 0.25);
        let masked = g2.add(scaled, m2);
        let sm_unfused = g2.softmax_rows(masked);
        assert_eq!(g1.value(sm_fused).data, g2.value(sm_unfused).data);
    }

    #[test]
    fn grad_seg_multi_head_attention() {
        // Packed qkv (d_model = 4, 2 heads of width 2) over ragged segments.
        let segs = [3usize, 2];
        let mask = Matrix::from_rows(&[
            &[0.0, -1e9, 0.0],
            &[0.0, 0.0, -1e9],
            &[-1e9, 0.0, 0.0],
            &[0.0, 0.0, -1e9],
            &[-1e9, 0.0, -1e9],
        ]);
        check_gradient(
            |g, p| {
                let mv = g.input(mask.clone());
                let att = g.seg_multi_head_attention(p, mv, &segs, 2, 0.7);
                let t = g.input(rand_matrix(5, 4, 91));
                let m = g.mul(att, t);
                g.sum_all(m)
            },
            rand_matrix(5, 12, 90),
            3e-2,
        );
    }

    #[test]
    fn fused_mha_matches_unfused_ops_bitwise() {
        let segs = [3usize, 2];
        let qkv = rand_matrix(5, 12, 92); // d_model = 4, heads = 2, dk = 2
        let mask = Matrix::from_rows(&[
            &[0.0, -1e9, 0.0],
            &[0.0, 0.0, 0.0],
            &[-1e9, 0.0, 0.0],
            &[0.0, 0.0, -1e9],
            &[0.0, 0.0, -1e9],
        ]);
        let mut g1 = Graph::new();
        let q1 = g1.input(qkv.clone());
        let m1 = g1.input(mask.clone());
        let fused = g1.seg_multi_head_attention(q1, m1, &segs, 2, 0.5);
        let mut g2 = Graph::new();
        let qv = g2.input(qkv);
        let m2 = g2.input(mask);
        let mut heads = Vec::new();
        for h in 0..2usize {
            let q = g2.slice_cols(qv, h * 2, 2);
            let k = g2.slice_cols(qv, 4 + h * 2, 2);
            let v = g2.slice_cols(qv, 8 + h * 2, 2);
            let scores = g2.seg_attn_scores_masked(q, k, m2, &segs, 0.5);
            let sm = g2.softmax_rows(scores);
            heads.push(g2.seg_attn_apply(sm, v, &segs));
        }
        let unfused = g2.concat_cols(&heads);
        // The fused kernel accumulates scores feature-major while the
        // unfused ops use chunked dots, so association (and hence low-order
        // bits) may differ; values must still agree to fp tolerance.
        for (a, b) in g1
            .value(fused)
            .data
            .iter()
            .zip(&g2.value(unfused).data.clone())
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn grad_seg_mean_rows() {
        check_gradient(
            |g, p| {
                let pooled = g.seg_mean_rows(p, &[2, 3]);
                let t = g.input(rand_matrix(2, 3, 27));
                let m = g.mul(pooled, t);
                g.sum_all(m)
            },
            rand_matrix(5, 3, 26),
            1e-2,
        );
    }

    #[test]
    fn seg_ops_match_per_sequence_ops_bitwise() {
        // A stacked two-segment batch must reproduce the per-sequence
        // single-graph results exactly — the batched-inference invariant.
        let qa = rand_matrix(3, 4, 30);
        let qb = rand_matrix(2, 4, 31);
        let ka = rand_matrix(3, 4, 32);
        let kb = rand_matrix(2, 4, 33);
        let stack = |a: &Matrix, b: &Matrix| {
            let mut d = a.data.clone();
            d.extend_from_slice(&b.data);
            Matrix::from_vec(a.rows + b.rows, a.cols, d)
        };
        let mut g = Graph::new();
        let q = g.input(stack(&qa, &qb));
        let k = g.input(stack(&ka, &kb));
        let scores = g.seg_attn_scores(q, k, &[3, 2]);
        let sv = g.value(scores).clone();
        // Per-segment reference via matmul_nt on the raw matrices.
        let ra = qa.matmul_nt(&ka);
        let rb = qb.matmul_nt(&kb);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(sv.get(i, j), ra.get(i, j));
            }
        }
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(sv.get(3 + i, j), rb.get(i, j));
            }
            assert_eq!(sv.get(3 + i, 2), 0.0, "padding column must be zero");
        }
        // seg_mean_rows row 0 == mean_rows of the first segment alone.
        let pooled = g.seg_mean_rows(q, &[3, 2]);
        let mut g2 = Graph::new();
        let qa_in = g2.input(qa.clone());
        let single = g2.mean_rows(qa_in);
        assert_eq!(g.value(pooled).row(0), g2.value(single).row(0));
    }

    #[test]
    fn backward_into_grad_store_matches_param_set() {
        let mut set = ParamSet::new();
        let id = set.alloc(rand_matrix(3, 4, 40));
        let build = |g: &mut Graph, p: Var| {
            let x = g.input(rand_matrix(2, 3, 41));
            let y = g.matmul(x, p);
            let y = g.tanh(y);
            g.sum_all(y)
        };
        let mut g1 = Graph::new();
        let p1 = g1.param(id, &set);
        let loss1 = build(&mut g1, p1);
        set.zero_grad();
        g1.backward(loss1, &mut set);
        let via_set = set.grad(id).clone();

        let mut store = crate::params::GradStore::zeros_like(&set);
        let mut g2 = Graph::new();
        let p2 = g2.param(id, &set);
        let loss2 = build(&mut g2, p2);
        g2.backward_into(loss2, &mut store);
        assert_eq!(store.grad(id), &via_set);

        // add_into accumulates on top of existing grads.
        store.add_into(&mut set);
        let doubled = set.grad(id).clone();
        for (d, v) in doubled.data.iter().zip(&via_set.data) {
            assert!((d - 2.0 * v).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_stores_no_subnormal_gradient() {
        // loss = 1e-20 · (1e-20 · Σ p·x): the upstream gradient reaching the
        // sum is 1e-40 — subnormal — and every node below it would otherwise
        // carry subnormal entries through its backward kernel.
        let run = |inner: f32| {
            let mut set = ParamSet::new();
            let id = set.alloc(rand_matrix(3, 4, 5));
            let mut g = Graph::new();
            let p = g.param(id, &set);
            let x = g.input(rand_matrix(3, 4, 6));
            let px = g.mul(p, x);
            let s = g.sum_all(px);
            let inner = g.scale(s, inner);
            let loss = g.scale(inner, 1e-20);
            set.zero_grad();
            g.backward(loss, &mut set);
            set.grad(id).clone()
        };
        assert!(run(1e-20).data.iter().all(|&v| v == 0.0));
        // A small but normal gradient (1e-25 ≫ 2⁻¹⁰⁰) passes untouched.
        assert!(run(1e-5).data.iter().all(|&v| v != 0.0 && v.abs() < 1e-24));
        // Backward moves each node's gradient out once it is complete, so
        // the flush is checked where gradients are stored: `accum`.
        let mut g = Graph::new();
        let mut set = ParamSet::new();
        let p = g.param(set.alloc(Matrix::zeros(1, 4)), &set);
        g.accum(p, Matrix::from_rows(&[&[1e-40, 1e-25, -1e-40, 1.0]]));
        g.accum(p, Matrix::from_rows(&[&[1e-40, 0.0, 0.0, 0.0]]));
        let stored = g.nodes[p.0].grad.as_ref().expect("accumulated");
        assert_eq!(stored.data, vec![0.0, 1e-25, 0.0, 1.0]);
        assert!(stored.data.iter().all(|v| !v.is_subnormal()));
    }

    #[test]
    fn masked_softmax_ignores_masked_entries() {
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let mask = g.input(Matrix::from_rows(&[&[0.0, -1e9, 0.0]]));
        let masked = g.add(logits, mask);
        let sm = g.softmax_rows(masked);
        let v = g.value(sm);
        assert!(v.get(0, 1) < 1e-6);
        assert!((v.get(0, 0) + v.get(0, 2) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn end_to_end_training_reduces_loss() {
        // Tiny regression: y = x @ W, learn W to match a target mapping.
        let mut rng = StdRng::seed_from_u64(42);
        let mut set = ParamSet::new();
        let w = set.alloc_xavier(3, 2, &mut rng);
        let mut adam = crate::params::Adam::new(0.05);
        let x = rand_matrix(8, 3, 20);
        let target = x.matmul(&Matrix::from_rows(&[
            &[1.0, -1.0],
            &[0.5, 2.0],
            &[-1.5, 0.0],
        ]));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let mut g = Graph::new();
            let xin = g.input(x.clone());
            let wv = g.param(w, &set);
            let pred = g.matmul(xin, wv);
            let t = g.input(target.clone());
            let d = g.sub(pred, t);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            last = g.value(loss).get(0, 0);
            first.get_or_insert(last);
            set.zero_grad();
            g.backward(loss, &mut set);
            adam.step(&mut set);
        }
        assert!(last < first.unwrap() / 100.0, "loss {first:?} → {last}");
    }
}
