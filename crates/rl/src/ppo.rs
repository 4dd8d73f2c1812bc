//! The PPO update rule over a caller-supplied policy/value network.

use foss_nn::{Graph, Matrix, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, RngExt};

use crate::buffer::RolloutBatch;

/// Additive logit penalty for masked-out actions.
pub const MASK_NEG: f32 = -1e9;

/// The network contract: given a batch of states, record a forward pass that
/// yields unmasked action logits (`B × A`) and state values (`B × 1`).
pub trait PolicyValueNet<S> {
    /// Record the forward pass on `g` using parameters from `set`.
    fn forward(&self, g: &mut Graph, set: &ParamSet, states: &[&S]) -> (Var, Var);

    /// Number of actions (logit columns).
    fn action_count(&self) -> usize;
}

/// PPO hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub lam: f32,
    /// Clipping radius ε.
    pub clip: f32,
    /// Optimisation epochs per batch.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Early-stop threshold on approximate KL (None = never stop early).
    pub target_kl: Option<f32>,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            lam: 0.95,
            clip: 0.2,
            epochs: 4,
            minibatch: 64,
            entropy_coef: 0.01,
            value_coef: 0.5,
            target_kl: Some(0.03),
            max_grad_norm: 1.0,
        }
    }
}

/// Diagnostics from one [`Ppo::update`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpoStats {
    /// Mean clipped policy loss of the final epoch.
    pub policy_loss: f32,
    /// Mean value loss of the final epoch.
    pub value_loss: f32,
    /// Mean policy entropy of the final epoch.
    pub entropy: f32,
    /// Approximate KL between old and new policies.
    pub approx_kl: f32,
    /// Epochs actually run (early stop may cut them short).
    pub epochs_run: usize,
}

/// PPO trainer: owns hyperparameters and the Adam state.
pub struct Ppo {
    /// Hyperparameters.
    pub cfg: PpoConfig,
    adam: foss_nn::Adam,
}

impl Ppo {
    /// Trainer with learning rate `lr`.
    pub fn new(cfg: PpoConfig, lr: f32) -> Self {
        Self {
            cfg,
            adam: foss_nn::Adam::new(lr),
        }
    }

    /// Run the clipped-surrogate update over `batch`.
    pub fn update<S>(
        &mut self,
        net: &impl PolicyValueNet<S>,
        set: &mut ParamSet,
        batch: &RolloutBatch<S>,
        rng: &mut StdRng,
    ) -> PpoStats {
        let n = batch.transitions.len();
        if n == 0 {
            return PpoStats::default();
        }
        let mut stats = PpoStats::default();
        let mut order: Vec<usize> = (0..n).collect();
        'epochs: for epoch in 0..self.cfg.epochs {
            order.shuffle(rng);
            for chunk in order.chunks(self.cfg.minibatch.max(1)) {
                let states: Vec<&S> = chunk.iter().map(|&i| &batch.transitions[i].state).collect();
                let actions: Vec<usize> =
                    chunk.iter().map(|&i| batch.transitions[i].action).collect();
                let old_logp: Vec<f32> = chunk.iter().map(|&i| batch.transitions[i].logp).collect();
                let advs: Vec<f32> = chunk.iter().map(|&i| batch.advantages[i]).collect();
                let rets: Vec<f32> = chunk.iter().map(|&i| batch.returns[i]).collect();
                let b = chunk.len();
                let a_count = net.action_count();

                // Mask matrix: 0 for legal actions, MASK_NEG for illegal.
                let mut mask = Matrix::zeros(b, a_count);
                for (r, &i) in chunk.iter().enumerate() {
                    for (c, &legal) in batch.transitions[i].mask.iter().enumerate() {
                        if !legal {
                            mask.set(r, c, MASK_NEG);
                        }
                    }
                }

                let mut g = Graph::new();
                let (logits, values) = net.forward(&mut g, set, &states);
                let mask_var = g.input(mask);
                let masked = g.add(logits, mask_var);
                let logp_all = g.log_softmax_rows(masked);
                let logp_new = g.pick_per_row(logp_all, &actions);

                let old = g.input(Matrix::from_vec(b, 1, old_logp.clone()));
                let diff = g.sub(logp_new, old);
                let ratio = g.exp(diff);
                let adv = g.input(Matrix::from_vec(b, 1, advs));
                let surr1 = g.mul(ratio, adv);
                let clipped = g.clamp(ratio, 1.0 - self.cfg.clip, 1.0 + self.cfg.clip);
                let surr2 = g.mul(clipped, adv);
                let surr = g.min_elem(surr1, surr2);
                let mean_surr = g.mean_all(surr);
                let policy_loss = g.scale(mean_surr, -1.0);

                let ret = g.input(Matrix::from_vec(b, 1, rets));
                let verr = g.sub(values, ret);
                let vsq = g.mul(verr, verr);
                let value_loss = g.mean_all(vsq);

                let probs = g.softmax_rows(masked);
                let plogp = g.mul(probs, logp_all);
                let neg_ent = g.mean_all(plogp);
                let ent_rowscale = a_count as f32; // mean over cells → per-row sum
                let entropy = g.scale(neg_ent, -ent_rowscale);

                let vterm = g.scale(value_loss, self.cfg.value_coef);
                let eterm = g.scale(entropy, -self.cfg.entropy_coef);
                let partial = g.add(policy_loss, vterm);
                let loss = g.add(partial, eterm);

                stats.policy_loss = g.value(policy_loss).get(0, 0);
                stats.value_loss = g.value(value_loss).get(0, 0);
                stats.entropy = g.value(entropy).get(0, 0);

                // Approximate KL for early stopping: E[old − new].
                let kl: f32 = (0..b)
                    .map(|r| old_logp[r] - g.value(logp_new).get(r, 0))
                    .sum::<f32>()
                    / b as f32;
                stats.approx_kl = kl;

                set.zero_grad();
                g.backward(loss, set);
                let norm = set.grad_norm();
                if norm > self.cfg.max_grad_norm {
                    set.scale_grads(self.cfg.max_grad_norm / norm);
                }
                self.adam.step(set);

                if let Some(target) = self.cfg.target_kl {
                    if kl.abs() > target {
                        stats.epochs_run = epoch + 1;
                        break 'epochs;
                    }
                }
            }
            stats.epochs_run = epoch + 1;
        }
        stats
    }
}

/// Sample an action from masked logits; returns `(action, logp, probs)`.
///
/// Used at collection time (no gradients needed). Draws one uniform from
/// `rng` and defers to [`sample_masked_at`].
pub fn sample_masked(logits: &[f32], mask: &[bool], rng: &mut StdRng) -> (usize, f32, Vec<f32>) {
    sample_masked_at(logits, mask, rng.random_range(0.0..1.0))
}

/// [`sample_masked`] with the uniform `u ∈ [0, 1)` supplied by the caller —
/// a pure function of its arguments, so collection can draw its randomness
/// up front and run episodes on any thread.
pub fn sample_masked_at(logits: &[f32], mask: &[bool], u: f32) -> (usize, f32, Vec<f32>) {
    debug_assert_eq!(logits.len(), mask.len());
    let max = logits
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f32::NEG_INFINITY, f32::max);
    assert!(max.is_finite(), "no legal action to sample");
    let mut probs: Vec<f32> = logits
        .iter()
        .zip(mask)
        .map(|(&l, &m)| if m { (l - max).exp() } else { 0.0 })
        .collect();
    let sum: f32 = probs.iter().sum();
    for p in &mut probs {
        *p /= sum;
    }
    let mut acc = 0.0;
    let mut action = probs.len() - 1;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            action = i;
            break;
        }
    }
    // Guard against sampling a masked action through rounding.
    if !mask[action] {
        action = probs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one legal action");
    }
    let logp = probs[action].max(1e-12).ln();
    (action, logp, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{RolloutBuffer, Transition};
    use foss_nn::Linear;
    use rand::SeedableRng;

    /// Tiny two-state bandit: state 0 → action 1 pays, state 1 → action 0.
    struct TinyNet {
        policy: Linear,
        value: Linear,
    }

    impl PolicyValueNet<usize> for TinyNet {
        fn forward(&self, g: &mut Graph, set: &ParamSet, states: &[&usize]) -> (Var, Var) {
            let b = states.len();
            let mut feats = Matrix::zeros(b, 2);
            for (r, &&s) in states.iter().enumerate() {
                feats.set(r, s, 1.0);
            }
            let x = g.input(feats);
            let logits = self.policy.forward(g, set, x);
            let values = self.value.forward(g, set, x);
            (logits, values)
        }

        fn action_count(&self) -> usize {
            2
        }
    }

    #[test]
    fn ppo_learns_state_conditional_bandit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut set = ParamSet::new();
        let net = TinyNet {
            policy: Linear::new(&mut set, 2, 2, &mut rng),
            value: Linear::new(&mut set, 2, 2, &mut rng),
        };
        // value head outputs 2 cols; use col 0 only — simpler: make value 1-col net.
        let net = TinyNet {
            policy: net.policy,
            value: Linear::new(&mut set, 2, 1, &mut rng),
        };
        let mut ppo = Ppo::new(
            PpoConfig {
                minibatch: 32,
                epochs: 4,
                target_kl: None,
                ..Default::default()
            },
            0.05,
        );
        for _round in 0..30 {
            let mut buf = RolloutBuffer::new();
            for i in 0..64 {
                let s = i % 2;
                let mut g = Graph::new();
                let (logits, values) = net.forward(&mut g, &set, &[&s]);
                let l = g.value(logits).row(0).to_vec();
                let v = g.value(values).get(0, 0);
                let (a, logp, _) = sample_masked(&l, &[true, true], &mut rng);
                let reward = if (s == 0 && a == 1) || (s == 1 && a == 0) {
                    1.0
                } else {
                    0.0
                };
                buf.push(Transition {
                    state: s,
                    mask: vec![true, true],
                    action: a,
                    reward,
                    done: true,
                    value: v,
                    logp,
                });
            }
            let batch = buf.finish(ppo.cfg.gamma, ppo.cfg.lam);
            ppo.update(&net, &mut set, &batch, &mut rng);
        }
        // Greedy policy must now be correct in both states.
        for s in 0..2usize {
            let mut g = Graph::new();
            let (logits, _) = net.forward(&mut g, &set, &[&s]);
            let row = g.value(logits).row(0).to_vec();
            let best = if row[0] > row[1] { 0 } else { 1 };
            assert_eq!(best, 1 - s, "state {s} learned wrong action: {row:?}");
        }
    }

    #[test]
    fn sample_masked_never_picks_illegal() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = vec![5.0, 0.0, -2.0, 3.0];
        let mask = vec![false, true, true, false];
        for _ in 0..200 {
            let (a, logp, probs) = sample_masked(&logits, &mask, &mut rng);
            assert!(mask[a], "sampled masked action {a}");
            assert!(logp <= 0.0);
            assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert_eq!(probs[0], 0.0);
            assert_eq!(probs[3], 0.0);
        }
    }

    #[test]
    fn supplied_uniform_samples_exactly_like_the_rng_form() {
        let logits = vec![0.3, -1.2, 2.0, 0.0, 1.1];
        let mask = vec![true, true, false, true, true];
        let mut rng = StdRng::seed_from_u64(77);
        let mut draws = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let (a, logp, probs) = sample_masked(&logits, &mask, &mut rng);
            let u: f32 = draws.random_range(0.0..1.0);
            let (a2, logp2, probs2) = sample_masked_at(&logits, &mask, u);
            assert_eq!((a, logp.to_bits()), (a2, logp2.to_bits()));
            assert_eq!(probs, probs2);
        }
        // Both generators consumed exactly one draw per sample.
        assert_eq!(
            rng.random_range(0..u64::MAX),
            draws.random_range(0..u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "no legal action")]
    fn sample_masked_panics_without_legal_action() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_masked(&[1.0, 2.0], &[false, false], &mut rng);
    }

    #[test]
    fn update_on_empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut set = ParamSet::new();
        let net = TinyNet {
            policy: Linear::new(&mut set, 2, 2, &mut rng),
            value: Linear::new(&mut set, 2, 1, &mut rng),
        };
        let mut ppo = Ppo::new(PpoConfig::default(), 0.01);
        let batch = RolloutBatch::<usize> {
            transitions: vec![],
            advantages: vec![],
            returns: vec![],
        };
        let stats = ppo.update(&net, &mut set, &batch, &mut rng);
        assert_eq!(stats.epochs_run, 0);
    }

    #[test]
    fn kl_early_stop_reduces_epochs() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut set = ParamSet::new();
        let net = TinyNet {
            policy: Linear::new(&mut set, 2, 2, &mut rng),
            value: Linear::new(&mut set, 2, 1, &mut rng),
        };
        // Hugely aggressive LR with a tiny KL target: must stop before all
        // 50 epochs.
        let mut ppo = Ppo::new(
            PpoConfig {
                epochs: 50,
                target_kl: Some(1e-4),
                minibatch: 8,
                ..Default::default()
            },
            0.5,
        );
        let mut buf = RolloutBuffer::new();
        for i in 0..32 {
            let s = i % 2;
            buf.push(Transition {
                state: s,
                mask: vec![true, true],
                action: i % 2,
                reward: (i % 2) as f32,
                done: true,
                value: 0.0,
                logp: (0.5f32).ln(),
            });
        }
        let batch = buf.finish(0.99, 0.95);
        let stats = ppo.update(&net, &mut set, &batch, &mut rng);
        assert!(
            stats.epochs_run < 50,
            "expected early stop, ran {}",
            stats.epochs_run
        );
    }
}
