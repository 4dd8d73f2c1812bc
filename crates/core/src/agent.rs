//! The planner's agent (§III Agent): transformer state network `ϕ` plus a
//! fully-connected action selector `π` and a value head, trained end-to-end
//! with PPO.

use foss_common::{ByteReader, ByteWriter, Codec};
use foss_nn::{Graph, Linear, ParamSet, Var};
use foss_rl::{
    sample_masked, sample_masked_at, PolicyValueNet, Ppo, PpoConfig, PpoStats, RolloutBatch,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::FossConfig;
use crate::encoding::EncodedPlan;
use crate::state_net::StateNetwork;

/// The parameterised model: `ϕ` + policy MLP + value MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentModel {
    state_net: StateNetwork,
    policy_hidden: Linear,
    policy_out: Linear,
    value_hidden: Linear,
    value_out: Linear,
    actions: usize,
}

impl AgentModel {
    fn new(
        set: &mut ParamSet,
        table_vocab: usize,
        actions: usize,
        cfg: &FossConfig,
        rng: &mut StdRng,
    ) -> Self {
        let state_net = StateNetwork::new(
            set,
            table_vocab,
            cfg.d_model,
            cfg.d_state,
            cfg.heads,
            cfg.blocks,
            rng,
        );
        Self {
            state_net,
            policy_hidden: Linear::new(set, cfg.d_state, cfg.d_state, rng),
            policy_out: Linear::new(set, cfg.d_state, actions, rng),
            value_hidden: Linear::new(set, cfg.d_state, cfg.d_state, rng),
            value_out: Linear::new(set, cfg.d_state, 1, rng),
            actions,
        }
    }
}

impl Codec for AgentModel {
    fn encode(&self, w: &mut ByteWriter) {
        self.state_net.encode(w);
        self.policy_hidden.encode(w);
        self.policy_out.encode(w);
        self.value_hidden.encode(w);
        self.value_out.encode(w);
        w.put_usize(self.actions);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            state_net: StateNetwork::decode(r)?,
            policy_hidden: Linear::decode(r)?,
            policy_out: Linear::decode(r)?,
            value_hidden: Linear::decode(r)?,
            value_out: Linear::decode(r)?,
            actions: r.get_usize()?,
        })
    }
}

impl PolicyValueNet<EncodedPlan> for AgentModel {
    fn forward(&self, g: &mut Graph, set: &ParamSet, states: &[&EncodedPlan]) -> (Var, Var) {
        let sv = self.state_net.forward_batch(g, set, states);
        let ph = self.policy_hidden.forward(g, set, sv);
        let ph = g.relu(ph);
        let logits = self.policy_out.forward(g, set, ph);
        let vh = self.value_hidden.forward(g, set, sv);
        let vh = g.relu(vh);
        let values = self.value_out.forward(g, set, vh);
        (logits, values)
    }

    fn action_count(&self) -> usize {
        self.actions
    }
}

/// Evaluate one state against a model + parameter set: `(logits, value)`.
///
/// Shared by the trainable [`PlannerAgent`] and the serving
/// [`FrozenPolicy`] so both paths run the exact same tape.
fn eval_model(model: &AgentModel, set: &ParamSet, state: &EncodedPlan) -> (Vec<f32>, f32) {
    let mut g = Graph::new();
    let (logits, values) = model.forward(&mut g, set, &[state]);
    (g.value(logits).row(0).to_vec(), g.value(values).get(0, 0))
}

/// Argmax action under `mask` for a model + parameter set.
fn greedy_action(model: &AgentModel, set: &ParamSet, state: &EncodedPlan, mask: &[bool]) -> usize {
    let (logits, _) = eval_model(model, set, state);
    logits
        .iter()
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("mask admits no action")
}

/// Read-only greedy action selection — the part of a planner a serving
/// snapshot needs. Implemented by the live [`PlannerAgent`] (training-side
/// inference) and by [`FrozenPolicy`] (published snapshots), so the episode
/// loop can run identically over either.
pub trait PlanPolicy {
    /// Greedy action under `mask` (deterministic for fixed weights).
    fn act_greedy(&self, state: &EncodedPlan, mask: &[bool]) -> usize;
}

/// An immutable copy of an agent's policy weights, detached from its PPO
/// trainer and RNG. `Clone` + `Send` + `Sync`: many threads can plan over
/// one frozen policy concurrently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrozenPolicy {
    model: AgentModel,
    set: ParamSet,
}

impl FrozenPolicy {
    /// Evaluate one state: returns `(masked logits, value)` — bit-identical
    /// to the live agent the policy was frozen from.
    pub fn evaluate(&self, state: &EncodedPlan) -> (Vec<f32>, f32) {
        eval_model(&self.model, &self.set, state)
    }

    /// Rows of the state network's table-id embedding.
    pub(crate) fn table_vocab(&self) -> usize {
        self.model.state_net.table_vocab()
    }

    /// Width of the policy head (one logit per action).
    pub(crate) fn action_count(&self) -> usize {
        self.model.policy_out.out_dim
    }
}

impl Codec for FrozenPolicy {
    fn encode(&self, w: &mut ByteWriter) {
        self.model.encode(w);
        self.set.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            model: AgentModel::decode(r)?,
            set: ParamSet::decode(r)?,
        })
    }
}

impl PlanPolicy for FrozenPolicy {
    fn act_greedy(&self, state: &EncodedPlan, mask: &[bool]) -> usize {
        greedy_action(&self.model, &self.set, state, mask)
    }
}

/// One planner agent: model, parameters, PPO trainer and its own RNG.
///
/// Multi-agent FOSS (§VI-C5) instantiates several of these "with different
/// strategies (e.g., different discount factors and learning rates)" — see
/// [`PlannerAgent::with_strategy`].
pub struct PlannerAgent {
    /// The network.
    pub model: AgentModel,
    /// Its parameters.
    pub set: ParamSet,
    ppo: Ppo,
    rng: StdRng,
}

impl PlannerAgent {
    /// Allocate an agent for `actions` possible actions.
    pub fn new(table_vocab: usize, actions: usize, cfg: &FossConfig, seed: u64) -> Self {
        Self::with_strategy(table_vocab, actions, cfg, seed, 1.0, cfg.rl_gamma)
    }

    /// Allocate with a scaled learning rate and an explicit RL discount —
    /// the per-agent strategy diversification of the multi-agent mode.
    pub fn with_strategy(
        table_vocab: usize,
        actions: usize,
        cfg: &FossConfig,
        seed: u64,
        lr_scale: f32,
        rl_gamma: f32,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = ParamSet::new();
        let model = AgentModel::new(&mut set, table_vocab, actions, cfg, &mut rng);
        let ppo_cfg = PpoConfig {
            gamma: rl_gamma,
            minibatch: 32,
            ..PpoConfig::default()
        };
        Self {
            model,
            set,
            ppo: Ppo::new(ppo_cfg, cfg.agent_lr * lr_scale),
            rng,
        }
    }

    /// PPO discount γ in effect.
    pub fn gamma(&self) -> f32 {
        self.ppo.cfg.gamma
    }

    /// GAE λ in effect.
    pub fn lambda(&self) -> f32 {
        self.ppo.cfg.lam
    }

    /// Evaluate one state: returns `(masked logits, value)`.
    pub fn evaluate(&self, state: &EncodedPlan) -> (Vec<f32>, f32) {
        eval_model(&self.model, &self.set, state)
    }

    /// Sample an action under `mask`; returns `(action, logp, value)`.
    pub fn act(&mut self, state: &EncodedPlan, mask: &[bool]) -> (usize, f32, f32) {
        let (logits, value) = self.evaluate(state);
        let (a, logp, _) = sample_masked(&logits, mask, &mut self.rng);
        (a, logp, value)
    }

    /// [`PlannerAgent::act`] with the sampling uniform supplied by the
    /// caller: read-only, so one agent can act on many threads at once.
    pub fn act_at(&self, state: &EncodedPlan, mask: &[bool], u: f32) -> (usize, f32, f32) {
        let (logits, value) = self.evaluate(state);
        let (a, logp, _) = sample_masked_at(&logits, mask, u);
        (a, logp, value)
    }

    /// The next `n` sampling uniforms of the agent's RNG — exactly what `n`
    /// calls of [`PlannerAgent::act`] would draw, taken up front so the steps
    /// can then run through [`PlannerAgent::act_at`] off this thread.
    pub fn draw_uniforms(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.rng.random_range(0.0..1.0)).collect()
    }

    /// Greedy action under `mask` (inference).
    pub fn act_greedy(&self, state: &EncodedPlan, mask: &[bool]) -> usize {
        greedy_action(&self.model, &self.set, state, mask)
    }

    /// Copy the current policy weights into an immutable, shareable
    /// [`FrozenPolicy`] (the agent keeps training; the copy never changes).
    pub fn freeze(&self) -> FrozenPolicy {
        FrozenPolicy {
            model: self.model.clone(),
            set: self.set.clone(),
        }
    }

    /// Run one PPO update over a finished rollout batch.
    pub fn update(&mut self, batch: &RolloutBatch<EncodedPlan>) -> PpoStats {
        self.ppo
            .update(&self.model, &mut self.set, batch, &mut self.rng)
    }
}

impl PlanPolicy for PlannerAgent {
    fn act_greedy(&self, state: &EncodedPlan, mask: &[bool]) -> usize {
        PlannerAgent::act_greedy(self, state, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tag: usize) -> EncodedPlan {
        EncodedPlan {
            ops: vec![tag % 6, 0],
            tables: vec![0, 1],
            sels: vec![10, 0],
            rows: vec![2, 3],
            heights: vec![1, 0],
            structures: vec![3, 1],
            reach: vec![vec![true, true], vec![true, true]],
            step: 0.0,
        }
    }

    fn agent(actions: usize) -> PlannerAgent {
        PlannerAgent::new(3, actions, &FossConfig::tiny(), 9)
    }

    #[test]
    fn act_respects_mask() {
        let mut a = agent(5);
        let mask = vec![false, true, false, false, true];
        for _ in 0..50 {
            let (act, logp, _v) = a.act(&plan(0), &mask);
            assert!(mask[act]);
            assert!(logp <= 0.0);
        }
    }

    #[test]
    fn predrawn_uniforms_reproduce_act() {
        let mut live = agent(5);
        let mut predrawn = agent(5);
        let mask = vec![true, true, false, true, true];
        let uniforms = predrawn.draw_uniforms(20);
        for (step, &u) in uniforms.iter().enumerate() {
            let (a, logp, v) = live.act(&plan(step), &mask);
            let (a2, logp2, v2) = predrawn.act_at(&plan(step), &mask, u);
            assert_eq!(
                (a, logp.to_bits(), v.to_bits()),
                (a2, logp2.to_bits(), v2.to_bits())
            );
        }
        // Both RNGs stand at the same point of the stream afterwards.
        assert_eq!(live.draw_uniforms(3), predrawn.draw_uniforms(3));
    }

    #[test]
    fn greedy_is_deterministic_and_masked() {
        let a = agent(4);
        let mask = vec![true, false, true, false];
        let g1 = a.act_greedy(&plan(1), &mask);
        let g2 = a.act_greedy(&plan(1), &mask);
        assert_eq!(g1, g2);
        assert!(mask[g1]);
    }

    #[test]
    fn strategy_variants_differ() {
        let a = PlannerAgent::with_strategy(3, 4, &FossConfig::tiny(), 1, 1.0, 0.99);
        let b = PlannerAgent::with_strategy(3, 4, &FossConfig::tiny(), 2, 0.5, 0.9);
        assert_ne!(a.gamma(), b.gamma());
        // Different seeds → different initial policies.
        let (la, _) = a.evaluate(&plan(0));
        let (lb, _) = b.evaluate(&plan(0));
        assert_ne!(la, lb);
    }

    #[test]
    fn frozen_policy_matches_live_agent() {
        let a = agent(4);
        let frozen = a.freeze();
        let mask = vec![true, false, true, true];
        for tag in 0..6 {
            assert_eq!(frozen.evaluate(&plan(tag)), a.evaluate(&plan(tag)));
            assert_eq!(
                PlanPolicy::act_greedy(&frozen, &plan(tag), &mask),
                a.act_greedy(&plan(tag), &mask)
            );
        }
    }

    #[test]
    fn frozen_policy_is_detached_from_training() {
        use foss_rl::{RolloutBuffer, Transition};
        let mut a = agent(3);
        let frozen = a.freeze();
        let before = frozen.evaluate(&plan(0)).0;
        let mask = vec![true, true, true];
        let mut buf = RolloutBuffer::new();
        for _ in 0..8 {
            let (act, logp, v) = a.act(&plan(0), &mask);
            buf.push(Transition {
                state: plan(0),
                mask: mask.clone(),
                action: act,
                reward: 1.0,
                done: true,
                value: v,
                logp,
            });
        }
        let batch = buf.finish(a.gamma(), a.lambda());
        a.update(&batch);
        // The live agent moved; the frozen copy did not.
        assert_ne!(a.evaluate(&plan(0)).0, before);
        assert_eq!(frozen.evaluate(&plan(0)).0, before);
    }

    #[test]
    fn update_changes_policy() {
        use foss_rl::{RolloutBuffer, Transition};
        let mut a = agent(3);
        let mask = vec![true, true, true];
        let before = a.evaluate(&plan(0)).0;
        let mut buf = RolloutBuffer::new();
        for _ in 0..8 {
            let (act, logp, v) = a.act(&plan(0), &mask);
            buf.push(Transition {
                state: plan(0),
                mask: mask.clone(),
                action: act,
                reward: if act == 2 { 1.0 } else { -1.0 },
                done: true,
                value: v,
                logp,
            });
        }
        let batch = buf.finish(a.gamma(), a.lambda());
        let stats = a.update(&batch);
        assert!(stats.epochs_run >= 1);
        let after = a.evaluate(&plan(0)).0;
        assert_ne!(before, after);
    }
}
