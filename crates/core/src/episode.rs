//! Algorithm 1 — the planner's episode loop.

use foss_common::{FxHashSet, Result};
use foss_optimizer::{Icp, PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use foss_rl::{sample_masked_at, Transition};

use crate::actions::{as_swap, ActionSpace};
use crate::agent::{FrozenPolicy, PlannerAgent};
use crate::config::FossConfig;
use crate::encoding::{EncodedPlan, PlanEncoder};
use crate::envs::RewardOracle;

/// A plan in all three representations the loop needs.
#[derive(Debug, Clone)]
pub struct PlanCtx {
    /// Incomplete plan (identity for dedup and `minsteps`).
    pub icp: Icp,
    /// Complete physical plan.
    pub plan: PhysicalPlan,
    /// State-network encoding (step-stamped).
    pub encoded: EncodedPlan,
}

impl PlanCtx {
    /// The expert plan `original` of `query` as an episode's starting point
    /// (`CP_ORI`, encoded at step 0).
    pub(crate) fn of_original(
        encoder: &PlanEncoder,
        query: &Query,
        original: &PhysicalPlan,
    ) -> Result<Self> {
        Ok(Self {
            icp: original.extract_icp()?,
            plan: original.clone(),
            encoded: encoder.encode(query, original, 0.0),
        })
    }
}

/// What one episode produced.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// PPO transitions (`{State, Action, Reward, State'}` of the paper).
    pub transitions: Vec<Transition<EncodedPlan>>,
    /// The unmodified expert plan (`CP_ORI`).
    pub original: PlanCtx,
    /// Candidate plans in temporal order (`CP_1 … CP_maxsteps`).
    pub visited: Vec<PlanCtx>,
    /// The estimated optimal plan (`C̄P` — the episode's output).
    pub best: PlanCtx,
    /// Sum of step rewards (diagnostics).
    pub total_reward: f32,
}

/// Run one sampling (training) episode of Algorithm 1 for `query`, starting
/// from `original`.
///
/// The oracle decides whether rewards come from real execution or from the
/// AAM — the loop itself is identical, which is exactly the Dyna property
/// the paper exploits.
#[allow(clippy::too_many_arguments)]
pub fn run_episode(
    agent: &mut PlannerAgent,
    optimizer: &TraditionalOptimizer,
    encoder: &PlanEncoder,
    space: &ActionSpace,
    query: &Query,
    original: &PhysicalPlan,
    oracle: &mut dyn RewardOracle,
    cfg: &FossConfig,
) -> Result<EpisodeResult> {
    let mut choose = |state: &EncodedPlan, mask: &[bool]| agent.act(state, mask);
    run_episode_core(
        &mut choose,
        optimizer,
        encoder,
        space,
        query,
        original,
        oracle,
        cfg,
    )
}

/// A sampling episode whose randomness was drawn beforehand: `uniforms` holds
/// one [`PlannerAgent::draw_uniforms`] value per step (`cfg.max_steps` of
/// them), and `evaluate` is the agent's [`PlannerAgent::evaluate`] — or a
/// memo of it, since the agent does not change during the episode.
/// Identical to [`run_episode`] for the same stream, but reads the agent
/// only — episodes over frozen state can fan out.
#[allow(clippy::too_many_arguments)]
pub fn run_episode_predrawn(
    evaluate: &mut dyn FnMut(&EncodedPlan) -> (Vec<f32>, f32),
    uniforms: &[f32],
    optimizer: &TraditionalOptimizer,
    encoder: &PlanEncoder,
    space: &ActionSpace,
    query: &Query,
    original: &PhysicalPlan,
    oracle: &mut dyn RewardOracle,
    cfg: &FossConfig,
) -> Result<EpisodeResult> {
    debug_assert_eq!(uniforms.len(), cfg.max_steps);
    let mut draws = uniforms.iter();
    let mut choose = |state: &EncodedPlan, mask: &[bool]| {
        let u = *draws.next().expect("one pre-drawn uniform per step");
        let (logits, value) = evaluate(state);
        let (a, logp, _) = sample_masked_at(&logits, mask, u);
        (a, logp, value)
    };
    run_episode_core(
        &mut choose,
        optimizer,
        encoder,
        space,
        query,
        original,
        oracle,
        cfg,
    )
}

/// The read-only inference episode: greedy actions from a snapshot's
/// [`FrozenPolicy`], `&self` all the way down — many threads can run this
/// concurrently over one set of weights.
#[allow(clippy::too_many_arguments)]
pub fn run_episode_greedy(
    policy: &FrozenPolicy,
    optimizer: &TraditionalOptimizer,
    encoder: &PlanEncoder,
    space: &ActionSpace,
    query: &Query,
    original: &PhysicalPlan,
    oracle: &mut dyn RewardOracle,
    cfg: &FossConfig,
) -> Result<EpisodeResult> {
    let mut choose =
        |state: &EncodedPlan, mask: &[bool]| (policy.act_greedy(state, mask), 0.0, 0.0);
    run_episode_core(
        &mut choose,
        optimizer,
        encoder,
        space,
        query,
        original,
        oracle,
        cfg,
    )
}

/// Per-step decision function: `(state, mask) -> (action, logp, value)` —
/// sampling during training, argmax during inference.
type ChooseFn<'a> = &'a mut dyn FnMut(&EncodedPlan, &[bool]) -> (usize, f32, f32);

/// The shared episode loop over a [`ChooseFn`].
#[allow(clippy::too_many_arguments)]
fn run_episode_core(
    choose: ChooseFn<'_>,
    optimizer: &TraditionalOptimizer,
    encoder: &PlanEncoder,
    space: &ActionSpace,
    query: &Query,
    original: &PhysicalPlan,
    oracle: &mut dyn RewardOracle,
    cfg: &FossConfig,
) -> Result<EpisodeResult> {
    let original_ctx = PlanCtx::of_original(encoder, query, original)?;
    oracle.prepare(query, &original_ctx)?;
    let icp0 = original_ctx.icp.clone();

    let scale = crate::advantage::AdvantageScale::new(cfg.adv_points.clone());
    let l = scale.l() as f64;
    let max_steps = cfg.max_steps;
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.insert(icp0.fingerprint());

    let mut ctx_prev = original_ctx.clone();
    let mut best = original_ctx.clone();
    let mut visited = Vec::with_capacity(max_steps);
    let mut transitions: Vec<Transition<EncodedPlan>> = Vec::with_capacity(max_steps);
    let mut last_swap = None;
    let mut total_reward = 0.0f32;

    for t in 1..=max_steps {
        let mask = space.mask(query, &ctx_prev.icp, last_swap);
        if !mask.iter().any(|&m| m) {
            // Nothing to repair from here (a one-relation query has neither
            // swap nor override): the episode ends, with what it has.
            if let Some(last) = transitions.last_mut() {
                last.done = true;
            }
            break;
        }
        let state = ctx_prev.encoded.clone();
        let (a, logp, value) = choose(&state, &mask);
        let action = space.decode(a);
        let mut icp_t = ctx_prev.icp.clone();
        space.apply(action, &mut icp_t)?;
        let plan_t = optimizer.optimize_with_hint(query, &icp_t)?;
        let encoded_t = encoder.encode(query, &plan_t, t as f32 / max_steps as f32);
        let ctx_t = PlanCtx {
            icp: icp_t,
            plan: plan_t,
            encoded: encoded_t,
        };

        // Penalty (Eq. 3): γ · (minsteps(ICP_t) − t) ≤ 0.
        let minsteps = ctx_t.icp.min_steps_from(&icp0);
        let mut reward = cfg.penalty_gamma * (minsteps as f64 - t as f64);

        // Advantage of the new plan over the current estimated optimum;
        // reused for the step bounty and the line-21 update.
        let adv_vs_best = oracle.advantage(query, &best, &ctx_t);

        if seen.insert(ctx_t.icp.fingerprint()) {
            // Step bounty pb_t = Adv(C̄P_{t−1}, CP_t).
            let mut bounty = adv_vs_best as f64;
            if t == max_steps {
                // Episode bounty on the final output plan C̄P.
                let final_best = if adv_vs_best > 0 { &ctx_t } else { &best };
                let refs = oracle.references(query);
                if !refs.is_empty() {
                    let mut eb = 0.0f64;
                    let mut prev_refb = 1.0f64; // refb_0
                    for (ref_ctx, refb) in &refs {
                        let adv_i = oracle.advantage(query, ref_ctx, final_best);
                        eb += (scale.d_hat(adv_i) + adv_i as f64 / l) * (prev_refb - refb);
                        prev_refb = *refb;
                    }
                    bounty += cfg.eta * eb;
                }
            }
            reward += bounty;
        }

        if adv_vs_best > 0 {
            best = ctx_t.clone();
        }

        total_reward += reward as f32;
        transitions.push(Transition {
            state,
            mask,
            action: a,
            reward: reward as f32,
            done: t == max_steps,
            value,
            logp,
        });
        last_swap = as_swap(action);
        visited.push(ctx_t.clone());
        ctx_prev = ctx_t;
    }

    Ok(EpisodeResult {
        transitions,
        original: original_ctx,
        visited,
        best,
        total_reward,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::tests_support::{LatencyOracle, TestWorld};

    #[test]
    fn episode_produces_maxsteps_transitions() {
        let mut world = TestWorld::new(3);
        let cfg = FossConfig {
            max_steps: 3,
            ..FossConfig::tiny()
        };
        let mut oracle = LatencyOracle::new(&world.db, &world.opt, &world.encoder);
        let res = run_episode(
            &mut world.agent,
            &world.opt,
            &world.encoder,
            &world.space,
            &world.query,
            &world.original,
            &mut oracle,
            &cfg,
        )
        .unwrap();
        assert_eq!(res.transitions.len(), 3);
        assert_eq!(res.visited.len(), 3);
        assert!(res.transitions[2].done);
        assert!(!res.transitions[0].done);
        // Step encodings advance.
        assert!(res.visited[0].encoded.step < res.visited[2].encoded.step);
    }

    #[test]
    fn revisiting_an_icp_earns_no_bounty() {
        // With maxsteps = 2 and an agent forced through override + inverse
        // override... easier: run many episodes and assert rewards for
        // duplicate states are penalty-only. We test the invariant that any
        // step whose ICP equals the original gets reward ≤ 0 (no bounty:
        // fingerprint was pre-seeded).
        let mut world = TestWorld::new(3);
        let cfg = FossConfig {
            max_steps: 3,
            ..FossConfig::tiny()
        };
        for _ in 0..10 {
            let mut oracle = LatencyOracle::new(&world.db, &world.opt, &world.encoder);
            let res = run_episode(
                &mut world.agent,
                &world.opt,
                &world.encoder,
                &world.space,
                &world.query,
                &world.original,
                &mut oracle,
                &cfg,
            )
            .unwrap();
            let icp0 = world.original.extract_icp().unwrap();
            for (t, ctx) in res.visited.iter().enumerate() {
                if ctx.icp == icp0 {
                    assert!(
                        res.transitions[t].reward <= 0.0,
                        "repeat of the original ICP must not earn bounty"
                    );
                }
            }
        }
    }

    #[test]
    fn penalty_is_zero_on_minimal_paths() {
        // First step is always minimal (minsteps == 1 == t) unless the agent
        // picked a same-as-original mutation (masked out), so the first
        // transition's reward is ≥ 0 whenever its plan is new.
        let mut world = TestWorld::new(3);
        let cfg = FossConfig {
            max_steps: 2,
            ..FossConfig::tiny()
        };
        let mut oracle = LatencyOracle::new(&world.db, &world.opt, &world.encoder);
        let res = run_episode(
            &mut world.agent,
            &world.opt,
            &world.encoder,
            &world.space,
            &world.query,
            &world.original,
            &mut oracle,
            &cfg,
        )
        .unwrap();
        assert!(
            res.transitions[0].reward >= 0.0,
            "step 1 cannot be penalised: {}",
            res.transitions[0].reward
        );
    }

    #[test]
    fn greedy_mode_is_deterministic() {
        let world = TestWorld::new(3);
        let cfg = FossConfig {
            max_steps: 3,
            ..FossConfig::tiny()
        };
        let run = |world: &TestWorld| {
            let mut oracle = LatencyOracle::new(&world.db, &world.opt, &world.encoder);
            let res = run_episode_greedy(
                &world.agent.freeze(),
                &world.opt,
                &world.encoder,
                &world.space,
                &world.query,
                &world.original,
                &mut oracle,
                &cfg,
            )
            .unwrap();
            res.visited
                .iter()
                .map(|c| c.icp.fingerprint())
                .collect::<Vec<_>>()
        };
        let a = run(&world);
        let b = run(&world);
        assert_eq!(a, b);
    }

    #[test]
    fn best_plan_never_worse_than_original_under_true_latency() {
        // With a latency oracle the estimated optimum is exact, so `best`
        // must have latency ≤ original.
        let mut world = TestWorld::new(3);
        let cfg = FossConfig {
            max_steps: 3,
            ..FossConfig::tiny()
        };
        let mut oracle = LatencyOracle::new(&world.db, &world.opt, &world.encoder);
        let res = run_episode(
            &mut world.agent,
            &world.opt,
            &world.encoder,
            &world.space,
            &world.query,
            &world.original,
            &mut oracle,
            &cfg,
        )
        .unwrap();
        let lat_best = oracle.true_latency(&world.query, &res.best.plan);
        let lat_orig = oracle.true_latency(&world.query, &world.original);
        assert!(
            lat_best <= lat_orig * 1.05 + 1.0,
            "best ({lat_best}) worse than original ({lat_orig})"
        );
    }
}
