//! Proximal Policy Optimization (PPO) with masked categorical policies.
//!
//! The paper uses Ray RLlib's PPO "due to its effectiveness in mitigating
//! differences in the action distribution before and after agent updates
//! through KL divergence". This crate reimplements the algorithm on the
//! `foss-nn` tape: clipped surrogate objective, GAE-λ advantages, entropy
//! bonus, value loss, gradient clipping and KL-based early stopping.
//!
//! The policy/value network itself is supplied by the caller through the
//! [`PolicyValueNet`] trait, so the FOSS planner can train its
//! transformer state network end-to-end while this crate stays generic.

pub mod buffer;
pub mod ppo;

pub use buffer::{RolloutBatch, RolloutBuffer, Transition};
pub use ppo::{sample_masked, sample_masked_at, PolicyValueNet, Ppo, PpoConfig, PpoStats};
