//! FOSS hyperparameters, defaulting to the paper's reported values.

use serde::{Deserialize, Serialize};

/// Everything tunable about FOSS. Field defaults follow §III–§VI of the
/// paper (`maxsteps = 3`, `η = 12`, `γ = 2`, advantage split points
/// `{0.05, 0.50}`, dynamic timeout `1.5×`, 900 episodes per agent update).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FossConfig {
    /// Maximum optimisation steps per episode (`maxsteps`).
    pub max_steps: usize,
    /// Weight of the episode bounty relative to the step bounty (`η`).
    pub eta: f64,
    /// Penalty coefficient (`γ` in Eq. 3). Set 0 to disable (Table II
    /// "Off-Penalty").
    pub penalty_gamma: f64,
    /// Ordered advantage split points (`{d_i}`, §IV-B).
    pub adv_points: Vec<f64>,
    /// Dynamic timeout factor over the original plan's latency (§V-B).
    pub timeout_factor: f64,
    /// Simulated episodes per agent update (900 in the paper; scale down for
    /// quick experiments).
    pub episodes_per_update: usize,
    /// Whether the simulated environment is used at all (Table II
    /// "Off-Simulated": agent learns from real rewards only).
    pub use_simulated_env: bool,
    /// Whether promising plans are validated in the real environment
    /// (Table II "Off-Validation").
    pub validate_promising: bool,
    /// How many promising simulated plans per update round to validate: the
    /// *first* this-many distinct episode outputs in agent/episode order —
    /// the list is truncated, not ranked by the AAM's rating.
    pub promising_per_update: usize,
    /// Random queries sampled per update round for extra AAM data.
    pub random_validation_per_update: usize,
    /// Number of agents (Table II "2-Agents"). Each gets its own seed and a
    /// slightly different learning rate / discount.
    pub num_agents: usize,
    /// AAM supervised epochs per retraining round.
    pub aam_epochs: usize,
    /// AAM minibatch size.
    pub aam_batch: usize,
    /// AAM learning rate.
    pub aam_lr: f32,
    /// Positive-class focal decay `γ+` (must be < `γ−`).
    pub focal_gamma_pos: f32,
    /// Negative-class focal decay `γ−`.
    pub focal_gamma_neg: f32,
    /// Label-smoothing ε (`K = 3` classes).
    pub label_smoothing: f32,
    /// Transformer width of the state networks.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Attention blocks.
    pub blocks: usize,
    /// Width of the final state representation (`statevec`).
    pub d_state: usize,
    /// PPO learning rate for the agent.
    pub agent_lr: f32,
    /// PPO discount γ (RL discount, not the penalty coefficient).
    pub rl_gamma: f32,
    /// Experiment seed; all stochastic components derive from it.
    pub seed: u64,
}

impl Default for FossConfig {
    fn default() -> Self {
        Self {
            max_steps: 3,
            eta: 12.0,
            penalty_gamma: 2.0,
            adv_points: vec![0.05, 0.50],
            timeout_factor: 1.5,
            episodes_per_update: 900,
            use_simulated_env: true,
            validate_promising: true,
            promising_per_update: 24,
            random_validation_per_update: 8,
            num_agents: 1,
            aam_epochs: 4,
            aam_batch: 32,
            aam_lr: 1e-3,
            focal_gamma_pos: 1.0,
            focal_gamma_neg: 4.0,
            label_smoothing: 0.1,
            d_model: 64,
            heads: 4,
            blocks: 2,
            d_state: 64,
            agent_lr: 3e-4,
            rl_gamma: 0.99,
            seed: 42,
        }
    }
}

impl FossConfig {
    /// A configuration scaled down for unit tests and CI: tiny model, few
    /// episodes, same algorithms.
    pub fn tiny() -> Self {
        Self {
            episodes_per_update: 24,
            promising_per_update: 6,
            random_validation_per_update: 3,
            aam_epochs: 2,
            d_model: 32,
            heads: 2,
            blocks: 1,
            d_state: 32,
            ..Self::default()
        }
    }

    /// Number of advantage classes `K = |points| + 1`.
    pub fn num_classes(&self) -> usize {
        self.adv_points.len() + 1
    }
}

impl foss_common::Codec for FossConfig {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        w.put_usize(self.max_steps);
        w.put_f64(self.eta);
        w.put_f64(self.penalty_gamma);
        self.adv_points.encode(w);
        w.put_f64(self.timeout_factor);
        w.put_usize(self.episodes_per_update);
        w.put_bool(self.use_simulated_env);
        w.put_bool(self.validate_promising);
        w.put_usize(self.promising_per_update);
        w.put_usize(self.random_validation_per_update);
        w.put_usize(self.num_agents);
        w.put_usize(self.aam_epochs);
        w.put_usize(self.aam_batch);
        w.put_f32(self.aam_lr);
        w.put_f32(self.focal_gamma_pos);
        w.put_f32(self.focal_gamma_neg);
        w.put_f32(self.label_smoothing);
        w.put_usize(self.d_model);
        w.put_usize(self.heads);
        w.put_usize(self.blocks);
        w.put_usize(self.d_state);
        w.put_f32(self.agent_lr);
        w.put_f32(self.rl_gamma);
        w.put_u64(self.seed);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            max_steps: r.get_usize()?,
            eta: r.get_f64()?,
            penalty_gamma: r.get_f64()?,
            adv_points: Vec::decode(r)?,
            timeout_factor: r.get_f64()?,
            episodes_per_update: r.get_usize()?,
            use_simulated_env: r.get_bool()?,
            validate_promising: r.get_bool()?,
            promising_per_update: r.get_usize()?,
            random_validation_per_update: r.get_usize()?,
            num_agents: r.get_usize()?,
            aam_epochs: r.get_usize()?,
            aam_batch: r.get_usize()?,
            aam_lr: r.get_f32()?,
            focal_gamma_pos: r.get_f32()?,
            focal_gamma_neg: r.get_f32()?,
            label_smoothing: r.get_f32()?,
            d_model: r.get_usize()?,
            heads: r.get_usize()?,
            blocks: r.get_usize()?,
            d_state: r.get_usize()?,
            agent_lr: r.get_f32()?,
            rl_gamma: r.get_f32()?,
            seed: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FossConfig::default();
        assert_eq!(c.max_steps, 3);
        assert_eq!(c.eta, 12.0);
        assert_eq!(c.penalty_gamma, 2.0);
        assert_eq!(c.adv_points, vec![0.05, 0.50]);
        assert_eq!(c.timeout_factor, 1.5);
        assert_eq!(c.episodes_per_update, 900);
        assert_eq!(c.num_classes(), 3);
        assert!(c.focal_gamma_pos < c.focal_gamma_neg);
        assert_eq!(c.label_smoothing, 0.1);
    }

    #[test]
    fn tiny_is_still_three_class() {
        assert_eq!(FossConfig::tiny().num_classes(), 3);
    }
}
