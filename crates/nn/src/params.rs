//! Trainable parameters and the Adam optimiser.

use foss_common::{ByteReader, ByteWriter, Codec};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Handle to one parameter tensor inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// One trainable tensor with its gradient accumulator and Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by [`ParamSet::zero_grad`]).
    pub grad: Matrix,
    m: Matrix,
    v: Matrix,
}

/// A registry of parameters; layers hold [`ParamId`]s into one shared set so
/// the whole model can be stepped, serialised and copied at once.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a tensor initialised with Xavier/Glorot uniform init.
    pub fn alloc_xavier(&mut self, rows: usize, cols: usize, rng: &mut StdRng) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        self.alloc(Matrix::from_vec(rows, cols, data))
    }

    /// Allocate a zero-initialised tensor (biases, layer-norm beta).
    pub fn alloc_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.alloc(Matrix::zeros(rows, cols))
    }

    /// Allocate a one-initialised tensor (layer-norm gamma).
    pub fn alloc_ones(&mut self, rows: usize, cols: usize) -> ParamId {
        self.alloc(Matrix::full(rows, cols, 1.0))
    }

    /// Allocate from an explicit value.
    pub fn alloc(&mut self, value: Matrix) -> ParamId {
        let id = ParamId(self.params.len());
        let (r, c) = (value.rows, value.cols);
        self.params.push(Param {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        id
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value (tests / manual surgery).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Add `g` into the parameter's gradient (called by backward).
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.data.fill(0.0);
        }
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are allocated.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar parameter count.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|p| p.value.data.len()).sum()
    }

    /// Global gradient L2 norm (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data.iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all gradients by `factor` (gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for p in &mut self.params {
            for g in &mut p.grad.data {
                *g *= factor;
            }
        }
    }
}

impl Codec for ParamId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self(r.get_usize()?))
    }
}

/// Snapshots carry only parameter *values* — the gradient accumulator and
/// Adam moments are training scratch, re-zeroed on decode. Inference reads
/// nothing but `value`, so a decoded model plans bit-identically.
impl Codec for Param {
    fn encode(&self, w: &mut ByteWriter) {
        self.value.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        let value = Matrix::decode(r)?;
        let (rows, cols) = (value.rows, value.cols);
        Ok(Self {
            value,
            grad: Matrix::zeros(rows, cols),
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
        })
    }
}

impl Codec for ParamSet {
    fn encode(&self, w: &mut ByteWriter) {
        self.params.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            params: Vec::decode(r)?,
        })
    }
}

/// Destination for the parameter gradients a backward pass produces.
///
/// [`ParamSet`] implements it by accumulating into each parameter's `grad`
/// slot; [`GradStore`] implements it as a detached buffer so worker threads
/// can run backward passes concurrently against a shared `&ParamSet` and have
/// their results merged deterministically afterwards.
pub trait GradSink {
    /// Add `g` into the gradient accumulator for `id`.
    fn accumulate(&mut self, id: ParamId, g: &Matrix);
}

impl GradSink for ParamSet {
    fn accumulate(&mut self, id: ParamId, g: &Matrix) {
        self.accumulate_grad(id, g);
    }
}

/// A stand-alone gradient buffer with the same tensor layout as a
/// [`ParamSet`], but none of its values or optimiser moments — cheap to
/// allocate per worker thread.
#[derive(Debug, Clone)]
pub struct GradStore {
    grads: Vec<Matrix>,
}

impl GradStore {
    /// Zero gradients shaped like every parameter in `set`.
    pub fn zeros_like(set: &ParamSet) -> Self {
        Self {
            grads: set
                .params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows, p.value.cols))
                .collect(),
        }
    }

    /// Gradient buffer for `id`.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Add every buffered gradient into `set`'s accumulators (the
    /// deterministic merge step after parallel backward passes).
    pub fn add_into(&self, set: &mut ParamSet) {
        assert_eq!(
            self.grads.len(),
            set.params.len(),
            "grad store / set layout mismatch"
        );
        for (p, g) in set.params.iter_mut().zip(&self.grads) {
            p.grad.add_assign(g);
        }
    }
}

impl GradSink for GradStore {
    fn accumulate(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id.0].add_assign(g);
    }
}

/// Adam optimiser state (the per-tensor moments live in each [`Param`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Apply one update to every parameter using its accumulated gradient.
    pub fn step(&mut self, set: &mut ParamSet) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in &mut set.params {
            let moments = p.m.data.iter_mut().zip(p.v.data.iter_mut());
            for ((w, &g), (m, v)) in p.value.data.iter_mut().zip(&p.grad.data).zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Codec for Adam {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f32(self.lr);
        w.put_f32(self.beta1);
        w.put_f32(self.beta2);
        w.put_f32(self.eps);
        w.put_u64(self.t);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            lr: r.get_f32()?,
            beta1: r.get_f32()?,
            beta2: r.get_f32()?,
            eps: r.get_f32()?,
            t: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_init_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut set = ParamSet::new();
        let id = set.alloc_xavier(8, 8, &mut rng);
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(set.value(id).data.iter().all(|v| v.abs() <= bound));
        assert_eq!(set.scalar_count(), 64);
    }

    #[test]
    fn adam_minimises_quadratic() {
        // Minimise f(w) = (w - 3)^2 by hand-fed gradients.
        let mut set = ParamSet::new();
        let id = set.alloc(Matrix::scalar(0.0));
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            set.zero_grad();
            let w = set.value(id).get(0, 0);
            set.accumulate_grad(id, &Matrix::scalar(2.0 * (w - 3.0)));
            adam.step(&mut set);
        }
        let w = set.value(id).get(0, 0);
        assert!((w - 3.0).abs() < 0.05, "w={w}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut set = ParamSet::new();
        let id = set.alloc(Matrix::zeros(1, 2));
        set.accumulate_grad(id, &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert!((set.grad_norm() - 5.0).abs() < 1e-6);
        set.scale_grads(0.5);
        assert!((set.grad_norm() - 2.5).abs() < 1e-6);
        set.zero_grad();
        assert_eq!(set.grad_norm(), 0.0);
    }
}
