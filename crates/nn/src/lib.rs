//! A small pure-Rust neural-network stack: matrices, tape-based reverse-mode
//! autograd, layers (linear / embedding / layer-norm / multi-head attention
//! with additive masks) and Adam.
//!
//! Substitutes for PyTorch in the paper's implementation. The models FOSS
//! needs are small (d_model = 64, two attention blocks, three-way output
//! heads), so a CPU tape machine reproduces the training dynamics faithfully;
//! every operator's backward pass is verified against numeric differentiation
//! in this crate's tests.

pub mod graph;
pub mod layers;
pub mod matrix;
pub mod params;

pub use graph::{Graph, Var};
pub use layers::{
    additive_mask, segment_additive_mask, Embedding, LayerNorm, Linear, MultiHeadAttention,
};
pub use matrix::{kernel_build, Matrix};
pub use params::{Adam, GradSink, GradStore, ParamId, ParamSet};
