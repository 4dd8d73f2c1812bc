//! Rollout storage and Generalised Advantage Estimation.

/// One environment step, generic over the state representation `S`.
#[derive(Debug, Clone)]
pub struct Transition<S> {
    /// State observed before the action.
    pub state: S,
    /// Action mask active in that state (`true` = legal).
    pub mask: Vec<bool>,
    /// Chosen action index.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Whether the episode terminated after this step.
    pub done: bool,
    /// Value estimate `V(s)` at collection time.
    pub value: f32,
    /// Log-probability of the chosen action at collection time.
    pub logp: f32,
}

/// Collects transitions and turns them into a training batch with GAE-λ
/// advantages and discounted returns.
#[derive(Debug, Clone)]
pub struct RolloutBuffer<S> {
    transitions: Vec<Transition<S>>,
}

/// A finalised batch ready for [`crate::Ppo::update`].
#[derive(Debug, Clone)]
pub struct RolloutBatch<S> {
    /// The collected transitions.
    pub transitions: Vec<Transition<S>>,
    /// GAE advantages (normalised to zero mean / unit std).
    pub advantages: Vec<f32>,
    /// Discounted return targets for the value head.
    pub returns: Vec<f32>,
}

impl<S> Default for RolloutBuffer<S> {
    fn default() -> Self {
        Self {
            transitions: Vec::new(),
        }
    }
}

impl<S> RolloutBuffer<S> {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store one step.
    pub fn push(&mut self, t: Transition<S>) {
        self.transitions.push(t);
    }

    /// Store a whole episode: its steps, in order, after everything stored
    /// so far.
    pub fn push_episode(&mut self, steps: impl IntoIterator<Item = Transition<S>>) {
        self.transitions.extend(steps);
    }

    /// Append every transition of `other` (in order) after this buffer's.
    /// The merge point for sharded collection: workers fill private buffers
    /// and the owner merges them in a fixed shard order, keeping GAE results
    /// identical to single-threaded collection.
    pub fn merge(&mut self, other: RolloutBuffer<S>) {
        self.transitions.extend(other.transitions);
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Finalise into a batch. Episodes must end with `done = true`
    /// (the FOSS planner's episodes always do — fixed `maxsteps`); any
    /// trailing partial episode is bootstrapped with value 0.
    pub fn finish(self, gamma: f32, lam: f32) -> RolloutBatch<S> {
        let n = self.transitions.len();
        let mut advantages = vec![0.0f32; n];
        let mut returns = vec![0.0f32; n];
        let mut next_value = 0.0f32;
        let mut next_advantage = 0.0f32;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let (nv, na) = if t.done {
                (0.0, 0.0)
            } else {
                (next_value, next_advantage)
            };
            let delta = t.reward + gamma * nv - t.value;
            let adv = delta + gamma * lam * na;
            advantages[i] = adv;
            returns[i] = adv + t.value;
            next_value = t.value;
            next_advantage = adv;
        }
        // Normalise advantages (standard PPO practice).
        if n > 1 {
            let mean = advantages.iter().sum::<f32>() / n as f32;
            let var = advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f32>()
                / n as f32;
            let std = var.sqrt().max(1e-6);
            for a in &mut advantages {
                *a = (*a - mean) / std;
            }
        }
        RolloutBatch {
            transitions: self.transitions,
            advantages,
            returns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(reward: f32, value: f32, done: bool) -> Transition<u32> {
        Transition {
            state: 0,
            mask: vec![true],
            action: 0,
            reward,
            done,
            value,
            logp: 0.0,
        }
    }

    #[test]
    fn single_terminal_step() {
        let mut b = RolloutBuffer::new();
        b.push(step(1.0, 0.5, true));
        let batch = b.finish(0.99, 0.95);
        // delta = 1.0 - 0.5 = 0.5 → return = 1.0.
        assert!((batch.returns[0] - 1.0).abs() < 1e-6);
        assert_eq!(batch.advantages.len(), 1);
    }

    #[test]
    fn gae_accumulates_within_episode() {
        let mut b = RolloutBuffer::new();
        b.push(step(0.0, 0.0, false));
        b.push(step(1.0, 0.0, true));
        let batch = b.finish(1.0, 1.0);
        // With γ=λ=1 and zero values: both advantages equal total reward 1.
        // After normalisation they must be equal (same raw value).
        assert!((batch.advantages[0] - batch.advantages[1]).abs() < 1e-6);
        assert!((batch.returns[0] - 1.0).abs() < 1e-6);
        assert!((batch.returns[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn done_breaks_credit_assignment() {
        let mut b = RolloutBuffer::new();
        b.push(step(0.0, 0.0, true)); // episode 1: no reward
        b.push(step(1.0, 0.0, true)); // episode 2: reward 1
        let batch = b.finish(1.0, 1.0);
        // Episode 1 must not see episode 2's reward.
        assert!((batch.returns[0] - 0.0).abs() < 1e-6);
        assert!((batch.returns[1] - 1.0).abs() < 1e-6);
        // Normalised advantages: ep2 > ep1.
        assert!(batch.advantages[1] > batch.advantages[0]);
    }

    #[test]
    fn merge_preserves_order_and_gae() {
        let mut a = RolloutBuffer::new();
        a.push(step(0.0, 0.0, false));
        a.push(step(1.0, 0.0, true));
        let mut b = RolloutBuffer::new();
        b.push(step(2.0, 0.0, true));
        a.merge(b);
        assert_eq!(a.len(), 3);
        let batch = a.finish(1.0, 1.0);
        // Episode boundaries survive the merge: ep1 return 1, ep2 return 2.
        assert!((batch.returns[0] - 1.0).abs() < 1e-6);
        assert!((batch.returns[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn advantages_are_normalised() {
        let mut b = RolloutBuffer::new();
        for i in 0..10 {
            b.push(step(i as f32, 0.0, true));
        }
        let batch = b.finish(0.9, 0.9);
        let mean: f32 = batch.advantages.iter().sum::<f32>() / 10.0;
        let var: f32 = batch
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / 10.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }
}
