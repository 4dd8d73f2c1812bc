//! The FOSS training loop (Fig. 3).
//!
//! One [`Foss`] instance owns the planner agent(s), the AAM, the execution
//! buffer and handles the full loop:
//!
//! 1. **Bootstrap** — run real-environment episodes with the randomly
//!    initialised planner, executing candidate plans under the dynamic
//!    timeout into the execution buffer; train the AAM on the resulting
//!    latency-labelled pairs.
//! 2. **Iterate** — agents interact with the simulated environment
//!    `Ê(Γp, θadv)` (Algorithm 1), PPO-updating on simulated experience;
//!    *promising* plans flagged by the AAM are validated in the real
//!    environment, extra random queries are sampled for validation, and the
//!    AAM is retrained from the grown buffer.
//! 3. **Inference** — [`Foss::snapshot`] freezes the agents and the AAM into
//!    a [`PlannerSnapshot`], which plans: each agent greedily repairs the
//!    expert plan, and the AAM tournament picks the final plan among
//!    candidates (and among agents in multi-agent mode).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use foss_common::{FossError, FxHashMap, FxHashSet, QueryId, Result};
use foss_executor::CachingExecutor;
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use foss_rl::{RolloutBuffer, Transition};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aam::AdvantageModel;
use crate::actions::ActionSpace;
use crate::advantage::AdvantageScale;
use crate::agent::PlannerAgent;
use crate::config::FossConfig;
use crate::encoding::{EncodedPlan, PlanEncoder};
use crate::envs::{RealEnv, RewardOracle, SimEnv};
use crate::episode::{run_episode, run_episode_predrawn, EpisodeResult, PlanCtx};
use crate::execbuf::ExecutionBuffer;
use crate::snapshot::PlannerSnapshot;

/// Number of shards one agent's simulated episodes are split into: episode
/// `e` runs in shard `picks[e] % EPISODE_SHARDS`, so all episodes of a query
/// share a shard and its memos. The split is a pure function of the drawn
/// queries (never of the host's core count) and outcomes are merged in
/// episode order, so the phase is bit-for-bit the sequential loop on any
/// machine.
const EPISODE_SHARDS: usize = 8;

/// Wall-clock seconds of each phase of one [`Foss::bootstrap`] or
/// [`Foss::train_iteration`] call, in the order the phases run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// The episode phase: simulated episodes, in `EPISODE_SHARDS` shards
    /// per agent run by one worker per core, each shard memoising the
    /// policy's and the AAM's state-network outputs (real-environment
    /// episodes, on one thread, in bootstrap and off-simulated mode). Agents
    /// run side by side; this is the slowest agent's time.
    pub episodes_s: f64,
    /// PPO updates (one thread per agent; the slowest agent's time).
    pub ppo_update_s: f64,
    /// Real executions of promising and randomly sampled candidates.
    pub validation_s: f64,
    /// Building the AAM's labelled pairs from the execution buffer.
    pub pair_build_s: f64,
    /// AAM training epochs (each minibatch in four gradient shards, run by
    /// one worker per core).
    pub aam_epochs_s: f64,
    /// The AAM's accuracy pass over its training pairs.
    pub accuracy_s: f64,
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "episodes {:.3}s, ppo {:.3}s, validation {:.3}s, pairs {:.3}s, aam epochs {:.3}s, accuracy {:.3}s",
            self.episodes_s,
            self.ppo_update_s,
            self.validation_s,
            self.pair_build_s,
            self.aam_epochs_s,
            self.accuracy_s
        )
    }
}

/// Per-iteration training diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainReport {
    /// Iteration index.
    pub iteration: usize,
    /// Mean AAM loss of the last retraining epoch.
    pub aam_loss: f32,
    /// AAM accuracy on its own training pairs (optimistic, for trend only).
    pub aam_accuracy: f32,
    /// Mean episode reward across agents.
    pub mean_reward: f32,
    /// Total real executions performed so far (cache misses).
    pub plans_executed: u64,
    /// Plans stored in the execution buffer.
    pub buffer_plans: usize,
    /// Where the call's wall time went.
    pub phases: PhaseTimes,
}

/// What one agent's simulated-episode phase brings back for the agent-order
/// merge.
#[derive(Default)]
struct AgentRun {
    reward_sum: f32,
    episodes: usize,
    /// `(query index, repaired plan)` candidates for real-env validation;
    /// deduplication happens at the merge, across agents.
    promising: Vec<(usize, PlanCtx)>,
    /// Every episode's transitions, in episode order.
    rollout: RolloutBuffer<EncodedPlan>,
    episodes_s: f64,
    ppo_update_s: f64,
}

impl AgentRun {
    /// Fold episode outcomes, in episode order, into a run; `picks[e]` is
    /// episode `e`'s query index. Stops at the first error.
    fn fold(
        picks: &[usize],
        outcomes: impl IntoIterator<Item = Result<EpisodeOutcome>>,
    ) -> Result<Self> {
        let mut run = AgentRun::default();
        for (outcome, &qidx) in outcomes.into_iter().zip(picks) {
            let outcome = outcome?;
            run.reward_sum += outcome.reward;
            if let Some(ctx) = outcome.promising {
                run.promising.push((qidx, ctx));
            }
            run.rollout.push_episode(outcome.transitions);
            run.episodes += 1;
        }
        Ok(run)
    }
}

/// What one simulated episode contributes to its agent's [`AgentRun`].
struct EpisodeOutcome {
    reward: f32,
    /// The episode's output plan when it differs from the expert's.
    promising: Option<PlanCtx>,
    transitions: Vec<Transition<EncodedPlan>>,
}

/// Everything an iteration's simulated episodes read. All of it is frozen
/// for the phase — policy weights, AAM and buffer only change after it — so
/// an episode is a pure function of its pre-drawn randomness, episodes can
/// run on any thread in any order, and what a network computed for one
/// encoding holds for the whole phase.
struct SimPhase<'a> {
    queries: &'a [Query],
    originals: &'a FxHashMap<QueryId, PhysicalPlan>,
    optimizer: &'a TraditionalOptimizer,
    encoder: &'a PlanEncoder,
    space: &'a ActionSpace,
    aam: &'a AdvantageModel,
    buffer: &'a ExecutionBuffer,
    scale: &'a AdvantageScale,
    cfg: &'a FossConfig,
}

impl SimPhase<'_> {
    /// Run `episodes` simulated episodes of `agent` in `shards` shards.
    ///
    /// The phase's whole randomness is drawn first, in the order the
    /// sequential loop consumed it: one query index per episode from the
    /// runner's RNG (seeded with `query_seed`) and `max_steps` sampling
    /// uniforms per episode from the agent's RNG — an episode that ends
    /// early leaves its remaining uniforms unused rather than shifting the
    /// stream. Outcomes are folded in episode order, which keeps the `f32`
    /// reward sum, the promising list and the rollout independent of
    /// `shards`.
    ///
    /// A shard runs all episodes of its queries, in episode order, with two
    /// memos keyed by encoding content: the policy's `(logits, value)` per
    /// state — every episode of a query starts from the same state — and,
    /// inside its [`SimEnv`], the AAM state vector per plan. Memoised results
    /// are the results, bit for bit, so memos change no outcome.
    fn run(
        &self,
        agent: &mut PlannerAgent,
        query_seed: u64,
        episodes: usize,
        shards: usize,
    ) -> Result<AgentRun> {
        let started = Instant::now();
        let (picks, uniforms) = self.draw(agent, query_seed, episodes);
        let steps = self.cfg.max_steps;
        let agent = &*agent;
        let shards = shards.max(1);
        let outcomes = foss_common::run_sharded(shards, |si| {
            let mut env = SimEnv::new(self.aam, self.buffer, self.scale.clone());
            let mut policy: FxHashMap<Vec<u8>, (Vec<f32>, f32)> = FxHashMap::default();
            let mut evaluate = |state: &EncodedPlan| {
                policy
                    .entry(state.content_key())
                    .or_insert_with(|| agent.evaluate(state))
                    .clone()
            };
            let mut done = Vec::new();
            for e in (0..episodes).filter(|&e| picks[e] % shards == si) {
                let uniforms = &uniforms[e * steps..(e + 1) * steps];
                let outcome = self.episode(&mut evaluate, &mut env, picks[e], uniforms);
                let failed = outcome.is_err();
                done.push((e, outcome));
                if failed {
                    break;
                }
            }
            done
        });

        let mut slots: Vec<Option<Result<EpisodeOutcome>>> = (0..episodes).map(|_| None).collect();
        for (e, outcome) in outcomes.into_iter().flatten() {
            slots[e] = Some(outcome);
        }
        // A shard stops at its first failed episode, so every episode it
        // skipped comes after an error the fold returns first.
        let in_order = slots
            .into_iter()
            .map(|slot| slot.expect("episode skipped without an earlier error"));
        let mut run = AgentRun::fold(&picks, in_order)?;
        run.episodes_s = started.elapsed().as_secs_f64();
        Ok(run)
    }

    /// The phase's whole randomness, in the order the sequential loop drew
    /// it: the query index of each episode and `max_steps` sampling
    /// uniforms per episode.
    fn draw(
        &self,
        agent: &mut PlannerAgent,
        query_seed: u64,
        episodes: usize,
    ) -> (Vec<usize>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(query_seed);
        let picks: Vec<usize> = (0..episodes)
            .map(|_| rng.random_range(0..self.queries.len()))
            .collect();
        (picks, agent.draw_uniforms(episodes * self.cfg.max_steps))
    }

    fn episode(
        &self,
        evaluate: &mut dyn FnMut(&EncodedPlan) -> (Vec<f32>, f32),
        env: &mut dyn RewardOracle,
        qidx: usize,
        uniforms: &[f32],
    ) -> Result<EpisodeOutcome> {
        let query = &self.queries[qidx];
        let original = self
            .originals
            .get(&query.id)
            .expect("originals are resolved before the phase");
        let res = run_episode_predrawn(
            evaluate,
            uniforms,
            self.optimizer,
            self.encoder,
            self.space,
            query,
            original,
            env,
            self.cfg,
        )?;
        // AAM-estimated improvements are validation candidates (deduped at
        // the merge).
        let improved = res.best.icp.fingerprint() != res.original.icp.fingerprint();
        Ok(EpisodeOutcome {
            reward: res.total_reward,
            promising: improved.then_some(res.best),
            transitions: res.transitions,
        })
    }
}

/// Refuse an empty training workload.
fn check_workload(queries: &[Query]) -> Result<()> {
    if queries.is_empty() {
        return Err(FossError::InvalidQuery("empty training workload".into()));
    }
    Ok(())
}

/// The FOSS system.
pub struct Foss {
    cfg: FossConfig,
    scale: AdvantageScale,
    optimizer: Arc<TraditionalOptimizer>,
    executor: Arc<CachingExecutor>,
    encoder: PlanEncoder,
    space: ActionSpace,
    agents: Vec<PlannerAgent>,
    aam: AdvantageModel,
    buffer: ExecutionBuffer,
    originals: FxHashMap<QueryId, PhysicalPlan>,
    rng: StdRng,
}

impl Foss {
    /// Assemble FOSS over an expert optimizer and a shared caching executor.
    ///
    /// `max_relations` sizes the global action space (largest `n` in the
    /// workload); `table_rows` feeds the plan encoder's selectivity buckets.
    pub fn new(
        optimizer: Arc<TraditionalOptimizer>,
        executor: Arc<CachingExecutor>,
        max_relations: usize,
        table_rows: Vec<u64>,
        cfg: FossConfig,
    ) -> Self {
        let stream = foss_common::SeedStream::new(cfg.seed);
        let rng = StdRng::seed_from_u64(stream.derive("foss-trainer"));
        let table_count = table_rows.len();
        let encoder = PlanEncoder::new(table_count, table_rows);
        let space = ActionSpace::new(max_relations.max(2));
        let mut agents = Vec::with_capacity(cfg.num_agents);
        for a in 0..cfg.num_agents.max(1) {
            // Strategy diversification (§VI-C5): vary LR and discount.
            let lr_scale = 1.0 / (1.0 + a as f32 * 0.5);
            let gamma = cfg.rl_gamma - 0.04 * a as f32;
            agents.push(PlannerAgent::with_strategy(
                table_count + 1,
                space.len(),
                &cfg,
                stream.derive_indexed("agent", a as u64),
                lr_scale,
                gamma,
            ));
        }
        let aam = AdvantageModel::new(
            table_count + 1,
            &cfg,
            &mut StdRng::seed_from_u64(stream.derive("aam")),
        );
        let scale = AdvantageScale::new(cfg.adv_points.clone());
        Self {
            cfg,
            scale,
            optimizer,
            executor,
            encoder,
            space,
            agents,
            aam,
            buffer: ExecutionBuffer::new(),
            originals: FxHashMap::default(),
            rng,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FossConfig {
        &self.cfg
    }

    /// The trained advantage model.
    pub fn aam(&self) -> &AdvantageModel {
        &self.aam
    }

    /// The execution buffer (inspection / metrics).
    pub fn buffer(&self) -> &ExecutionBuffer {
        &self.buffer
    }

    /// Total real plan executions so far.
    pub fn plans_executed(&self) -> u64 {
        self.executor.executions()
    }

    fn original_plan(&mut self, query: &Query) -> Result<PhysicalPlan> {
        if let Some(p) = self.originals.get(&query.id) {
            return Ok(p.clone());
        }
        let p = self.optimizer.optimize(query)?;
        self.originals.insert(query.id, p.clone());
        Ok(p)
    }

    /// Phase 1: seed the execution buffer with real episodes and train the
    /// initial AAM. `episodes_per_query` real episodes are run per query,
    /// the agents taking turns.
    pub fn bootstrap(
        &mut self,
        queries: &[Query],
        episodes_per_query: usize,
    ) -> Result<TrainReport> {
        check_workload(queries)?;
        let started = Instant::now();
        for query in queries {
            let original = self.original_plan(query)?;
            for e in 0..episodes_per_query {
                self.real_episode(e % self.agents.len(), query, &original)?;
            }
        }
        let phases = PhaseTimes {
            episodes_s: started.elapsed().as_secs_f64(),
            ..PhaseTimes::default()
        };
        Ok(self.retrain_and_report(0, 0.0, phases))
    }

    /// One real-environment episode of agent `a` on `query`: every plan it
    /// visits is executed under the dynamic timeout into the buffer.
    fn real_episode(
        &mut self,
        a: usize,
        query: &Query,
        original: &PhysicalPlan,
    ) -> Result<EpisodeResult> {
        let mut env = RealEnv::new(
            &self.executor,
            &mut self.buffer,
            self.scale.clone(),
            self.cfg.timeout_factor,
        );
        run_episode(
            &mut self.agents[a],
            &self.optimizer,
            &self.encoder,
            &self.space,
            query,
            original,
            &mut env,
            &self.cfg,
        )
    }

    /// Execute `plans` of `query` for real under the dynamic timeout into
    /// the buffer, measuring the expert plan `original` first if the buffer
    /// has no latency for it yet.
    fn validate(&mut self, query: &Query, original: &PlanCtx, plans: &[PlanCtx]) -> Result<()> {
        let mut env = RealEnv::new(
            &self.executor,
            &mut self.buffer,
            self.scale.clone(),
            self.cfg.timeout_factor,
        );
        for ctx in plans {
            env.prepare(query, original)?;
            env.latency_of(query, ctx)?;
        }
        Ok(())
    }

    /// Close a bootstrap or an iteration: retrain the AAM from the buffer,
    /// then report.
    fn retrain_and_report(
        &mut self,
        iteration: usize,
        mean_reward: f32,
        mut phases: PhaseTimes,
    ) -> TrainReport {
        let started = Instant::now();
        let pairs = self.buffer.training_pairs(&self.scale, 200, &mut self.rng);
        phases.pair_build_s = started.elapsed().as_secs_f64();
        let (mut aam_loss, mut aam_accuracy) = (0.0, 0.0);
        if !pairs.is_empty() {
            let started = Instant::now();
            for _ in 0..self.cfg.aam_epochs {
                aam_loss = self.aam.train_epoch(&pairs, &mut self.rng);
            }
            phases.aam_epochs_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            aam_accuracy = self.aam.accuracy(&pairs);
            phases.accuracy_s = started.elapsed().as_secs_f64();
        }
        TrainReport {
            iteration,
            aam_loss,
            aam_accuracy,
            mean_reward,
            plans_executed: self.executor.executions(),
            buffer_plans: self.buffer.total_plans(),
            phases,
        }
    }

    /// Resolve every query's expert plan, then split `self` into the frozen
    /// view an iteration's simulated episodes read and the agents they train.
    fn sim_phase<'a>(
        &'a mut self,
        queries: &'a [Query],
    ) -> Result<(SimPhase<'a>, &'a mut [PlannerAgent])> {
        for query in queries {
            self.original_plan(query)?;
        }
        let phase = SimPhase {
            queries,
            originals: &self.originals,
            optimizer: &self.optimizer,
            encoder: &self.encoder,
            space: &self.space,
            aam: &self.aam,
            buffer: &self.buffer,
            scale: &self.scale,
            cfg: &self.cfg,
        };
        Ok((phase, &mut self.agents))
    }

    fn episodes_per_agent(&self) -> usize {
        (self.cfg.episodes_per_update / self.agents.len().max(1)).max(1)
    }

    /// Seed of the RNG that picks agent `a`'s episode queries in `iteration`
    /// — split from the experiment seed rather than shared, so agents do not
    /// depend on each other's schedule.
    fn episode_query_seed(&self, iteration: usize, a: usize) -> u64 {
        foss_common::SeedStream::new(self.cfg.seed)
            .substream("episode-queries")
            .derive_indexed("agent", (iteration * self.agents.len() + a) as u64)
    }

    /// The first agent's simulated-episode phase of iteration `iteration` and
    /// nothing else — no PPO update, no validation, no retraining; returns
    /// the mean episode reward. For benchmarks: the agent's sampling RNG
    /// advances, nothing is learned.
    pub fn simulate_episodes(&mut self, queries: &[Query], iteration: usize) -> Result<f32> {
        check_workload(queries)?;
        let episodes = self.episodes_per_agent();
        let seed = self.episode_query_seed(iteration, 0);
        let (phase, agents) = self.sim_phase(queries)?;
        let run = phase.run(&mut agents[0], seed, episodes, EPISODE_SHARDS)?;
        Ok(run.reward_sum / run.episodes.max(1) as f32)
    }

    /// Phase 2: one training iteration (agent updates + validation + AAM
    /// retraining). `queries` is the training workload.
    pub fn train_iteration(&mut self, queries: &[Query], iteration: usize) -> Result<TrainReport> {
        check_workload(queries)?;
        let episodes_per_agent = self.episodes_per_agent();
        let mut phases = PhaseTimes::default();
        let mut mean_reward = 0.0f32;
        let mut episodes_run = 0usize;
        // Promising plans flagged during simulated interaction, deduped.
        let mut promising: Vec<(usize, PlanCtx)> = Vec::new();
        let mut promising_seen: FxHashSet<(QueryId, u64)> = FxHashSet::default();

        if self.cfg.use_simulated_env {
            // Simulated episodes only read frozen state, so the agents run
            // side by side — one runner per agent, which fans its episodes
            // out in turn (`SimPhase::run`) and then PPO-updates its agent.
            // Each runner picks its queries with an RNG split from the
            // experiment seed by (iteration, agent) rather than sharing
            // `self.rng`: results are identical at any worker count.
            let seeds: Vec<u64> = (0..self.agents.len())
                .map(|a| self.episode_query_seed(iteration, a))
                .collect();
            let (phase, agents) = self.sim_phase(queries)?;
            let outcomes: Vec<Result<AgentRun>> = std::thread::scope(|scope| {
                let handles: Vec<_> = agents
                    .iter_mut()
                    .zip(seeds)
                    .map(|(agent, seed)| {
                        let phase = &phase;
                        scope.spawn(move || -> Result<AgentRun> {
                            let mut run =
                                phase.run(agent, seed, episodes_per_agent, EPISODE_SHARDS)?;
                            let started = Instant::now();
                            let batch = std::mem::take(&mut run.rollout)
                                .finish(agent.gamma(), agent.lambda());
                            agent.update(&batch);
                            run.ppo_update_s = started.elapsed().as_secs_f64();
                            Ok(run)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("episode runner panicked"))
                    .collect()
            });
            // Merge in agent order so rewards and the promising list are
            // deterministic regardless of which thread finished first.
            for outcome in outcomes {
                let run = outcome?;
                mean_reward += run.reward_sum;
                episodes_run += run.episodes;
                phases.episodes_s = phases.episodes_s.max(run.episodes_s);
                phases.ppo_update_s = phases.ppo_update_s.max(run.ppo_update_s);
                for (qidx, ctx) in run.promising {
                    if promising_seen.insert((queries[qidx].id, ctx.icp.fingerprint())) {
                        promising.push((qidx, ctx));
                    }
                }
            }
        } else {
            // Real-environment episodes append to the execution buffer and
            // must stay sequential (the buffer is the training ground truth
            // and its insertion order feeds AAM pair sampling).
            for a in 0..self.agents.len() {
                let started = Instant::now();
                let mut rollout = RolloutBuffer::new();
                for _ in 0..episodes_per_agent {
                    let query = &queries[self.rng.random_range(0..queries.len())];
                    let original = self.original_plan(query)?;
                    let res = self.real_episode(a, query, &original)?;
                    mean_reward += res.total_reward;
                    episodes_run += 1;
                    rollout.push_episode(res.transitions);
                }
                phases.episodes_s += started.elapsed().as_secs_f64();
                let started = Instant::now();
                let agent = &mut self.agents[a];
                agent.update(&rollout.finish(agent.gamma(), agent.lambda()));
                phases.ppo_update_s += started.elapsed().as_secs_f64();
            }
        }

        // Promising-plan validation (§V-B / Table II "Off-Validation").
        let started = Instant::now();
        if self.cfg.validate_promising {
            promising.truncate(self.cfg.promising_per_update);
            for (qidx, ctx) in promising {
                let query = &queries[qidx];
                let original = self.original_plan(query)?;
                let original = PlanCtx::of_original(&self.encoder, query, &original)?;
                self.validate(query, &original, &[ctx])?;
            }
        }
        // Random candidate sampling for extra AAM data: a simulated episode's
        // visited plans, executed for real.
        for _ in 0..self.cfg.random_validation_per_update {
            let query = &queries[self.rng.random_range(0..queries.len())];
            let original = self.original_plan(query)?;
            let agent = self.rng.random_range(0..self.agents.len());
            let mut env = SimEnv::new(&self.aam, &self.buffer, self.scale.clone());
            let res = run_episode(
                &mut self.agents[agent],
                &self.optimizer,
                &self.encoder,
                &self.space,
                query,
                &original,
                &mut env,
                &self.cfg,
            )?;
            self.validate(query, &res.original, &res.visited)?;
        }
        phases.validation_s = started.elapsed().as_secs_f64();

        let mean_reward = mean_reward / episodes_run.max(1) as f32;
        Ok(self.retrain_and_report(iteration, mean_reward, phases))
    }

    /// Full training: bootstrap once, then `iterations` update rounds.
    pub fn train(&mut self, queries: &[Query], iterations: usize) -> Result<Vec<TrainReport>> {
        let mut reports = Vec::with_capacity(iterations + 1);
        if self.buffer.total_plans() == 0 {
            reports.push(self.bootstrap(queries, 1)?);
        }
        for i in 1..=iterations {
            reports.push(self.train_iteration(queries, i)?);
        }
        Ok(reports)
    }

    /// Freeze the current planner into an immutable [`PlannerSnapshot`]
    /// (frozen agent policies and AAM weights behind `Arc`s). The snapshot
    /// is a deep copy: subsequent training rounds do not affect plans served
    /// from it. Neither the execution buffer nor the training queries'
    /// expert plans are part of it — inference never reads the buffer, and
    /// the snapshot plans any query's expert plan by DP. Publish through a
    /// [`crate::snapshot::SnapshotCell`] for hot model swaps.
    pub fn snapshot(&self) -> PlannerSnapshot {
        PlannerSnapshot::new(
            self.cfg.clone(),
            self.optimizer.clone(),
            Arc::new(self.encoder.clone()),
            Arc::new(self.space),
            Arc::new(self.agents.iter().map(|a| a.freeze()).collect()),
            Arc::new(self.aam.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::tests_support::TestWorld;

    /// What `foss`'s snapshot infers for `query`, repaired from its expert
    /// plan.
    fn inferred(foss: &Foss, query: &Query) -> crate::snapshot::Inference {
        let snap = foss.snapshot();
        let expert = snap.expert_plan(query).unwrap();
        snap.optimize_detailed_from(query, &expert).unwrap()
    }

    fn foss_over(world: &TestWorld, cfg: FossConfig) -> Foss {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        Foss::new(
            Arc::new(world.opt.clone()),
            executor,
            3,
            world.db.stats().iter().map(|s| s.row_count).collect(),
            cfg,
        )
    }

    #[test]
    fn bootstrap_fills_buffer_and_trains_aam() {
        let world = TestWorld::new(5);
        let mut foss = foss_over(
            &world,
            FossConfig {
                episodes_per_update: 8,
                ..FossConfig::tiny()
            },
        );
        let report = foss
            .bootstrap(std::slice::from_ref(&world.query), 2)
            .unwrap();
        assert!(
            report.buffer_plans >= 2,
            "buffer has {}",
            report.buffer_plans
        );
        assert!(report.plans_executed >= 2);
        assert!(foss.buffer().original(world.query.id).is_some());
    }

    #[test]
    fn train_iteration_grows_buffer_and_reports() {
        let world = TestWorld::new(6);
        let cfg = FossConfig {
            episodes_per_update: 6,
            promising_per_update: 4,
            random_validation_per_update: 1,
            ..FossConfig::tiny()
        };
        let mut foss = foss_over(&world, cfg);
        let queries = vec![world.query.clone()];
        foss.bootstrap(&queries, 1).unwrap();
        let before = foss.buffer().total_plans();
        let report = foss.train_iteration(&queries, 1).unwrap();
        assert_eq!(report.iteration, 1);
        assert!(report.buffer_plans >= before);
        assert!(report.aam_accuracy >= 0.0);
    }

    #[test]
    fn optimize_returns_a_runnable_plan() {
        let world = TestWorld::new(7);
        let cfg = FossConfig {
            episodes_per_update: 6,
            ..FossConfig::tiny()
        };
        let mut foss = foss_over(&world, cfg);
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        let inf = inferred(&foss, &world.query);
        assert!(inf.selected_step <= foss.config().max_steps);
        // The plan must execute and give the correct result cardinality.
        let exec = CachingExecutor::new(world.db.clone(), *world.opt.cost_model());
        let chosen = exec.execute(&world.query, &inf.plan, None).unwrap();
        let orig = exec.execute(&world.query, &world.original, None).unwrap();
        assert_eq!(chosen.rows, orig.rows, "FOSS must preserve query semantics");
    }

    #[test]
    fn multi_agent_mode_runs() {
        // `num_agents: 0` still builds one agent, whose candidates count.
        for (num_agents, policies) in [(2, 2), (0, 1)] {
            let world = TestWorld::new(8);
            let cfg = FossConfig {
                num_agents,
                episodes_per_update: 4,
                ..FossConfig::tiny()
            };
            let mut foss = foss_over(&world, cfg);
            foss.train(std::slice::from_ref(&world.query), 1).unwrap();
            let inf = inferred(&foss, &world.query);
            assert_eq!(inf.candidates, policies * 4, "{num_agents} agents");
        }
    }

    #[test]
    fn off_simulated_mode_uses_real_rewards() {
        let world = TestWorld::new(9);
        let cfg = FossConfig {
            use_simulated_env: false,
            episodes_per_update: 4,
            random_validation_per_update: 0,
            ..FossConfig::tiny()
        };
        let mut foss = foss_over(&world, cfg);
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        // Real-env episodes execute every distinct candidate plan.
        assert!(foss.plans_executed() >= 4);
    }

    /// Parallel episode runners must not make training order-dependent:
    /// two identically-seeded multi-agent runs (whose per-agent RNGs are
    /// split from the experiment seed, not drawn from a shared stream)
    /// produce bit-identical rewards and the same inference plan.
    #[test]
    fn parallel_episode_runners_are_deterministic() {
        let reports_and_plan = |_: usize| {
            let world = TestWorld::new(11);
            let cfg = FossConfig {
                num_agents: 3,
                episodes_per_update: 6,
                promising_per_update: 4,
                random_validation_per_update: 1,
                ..FossConfig::tiny()
            };
            let mut foss = foss_over(&world, cfg);
            let queries = vec![world.query.clone()];
            let reports = foss.train(&queries, 2).unwrap();
            let rewards: Vec<u32> = reports.iter().map(|r| r.mean_reward.to_bits()).collect();
            let plan = inferred(&foss, &world.query);
            let plan = plan.plan.fingerprint();
            (rewards, plan, foss.buffer().total_plans())
        };
        assert_eq!(reports_and_plan(0), reports_and_plan(1));
    }

    /// What the episode phase hands on, as comparable bits.
    fn phase_bits(
        run: AgentRun,
        agent: &PlannerAgent,
    ) -> (Vec<u32>, Vec<(usize, u64)>, Vec<String>) {
        let promising = run
            .promising
            .iter()
            .map(|(qidx, ctx)| (*qidx, ctx.icp.fingerprint()))
            .collect();
        let rollout = run
            .rollout
            .finish(agent.gamma(), agent.lambda())
            .transitions
            .iter()
            .map(|t| {
                format!(
                    "{:?} {:?} {} {:08x} {} {:08x} {:08x}",
                    t.state,
                    t.mask,
                    t.action,
                    t.reward.to_bits(),
                    t.done,
                    t.value.to_bits(),
                    t.logp.to_bits()
                )
            })
            .collect();
        (
            vec![run.reward_sum.to_bits(), run.episodes as u32],
            promising,
            rollout,
        )
    }

    /// The simulated environment without its memo: every verdict is
    /// [`AdvantageModel::predict`] on the two plans.
    struct PlainSimEnv<'a> {
        aam: &'a AdvantageModel,
        buffer: &'a ExecutionBuffer,
        scale: AdvantageScale,
    }

    impl RewardOracle for PlainSimEnv<'_> {
        fn prepare(&mut self, _query: &Query, _original: &PlanCtx) -> Result<()> {
            Ok(())
        }

        fn advantage(&mut self, _query: &Query, left: &PlanCtx, right: &PlanCtx) -> usize {
            self.aam.predict(&left.encoded, &right.encoded)
        }

        fn references(&mut self, query: &Query) -> Vec<(PlanCtx, f64)> {
            crate::envs::references(self.buffer, &self.scale, query)
        }
    }

    /// Neither the fan-out nor the memos may be observable: the production
    /// shard count, a single inline shard and the plain sequential loop — a
    /// fresh environment and a full policy forward per step, nothing
    /// memoised — yield the same reward bits, promising list and rollout
    /// order, for one agent and for three.
    #[test]
    fn sharded_episode_phase_equals_the_inline_phase() {
        for num_agents in [1usize, 3] {
            let world = TestWorld::new(12);
            let mut second = world.query.clone();
            second.id = QueryId::new(1);
            let queries = vec![world.query.clone(), second];
            // `None` runs the plain loop.
            let phase_with = |shards: Option<usize>| {
                let cfg = FossConfig {
                    num_agents,
                    episodes_per_update: 11 * num_agents,
                    ..FossConfig::tiny()
                };
                let mut foss = foss_over(&world, cfg);
                foss.bootstrap(&queries, 1).unwrap();
                let episodes = foss.episodes_per_agent();
                let seeds: Vec<u64> = (0..num_agents)
                    .map(|a| foss.episode_query_seed(1, a))
                    .collect();
                let (phase, agents) = foss.sim_phase(&queries).unwrap();
                let steps = phase.cfg.max_steps;
                agents
                    .iter_mut()
                    .zip(seeds)
                    .map(|(agent, seed)| {
                        let run = match shards {
                            Some(shards) => phase.run(agent, seed, episodes, shards).unwrap(),
                            None => {
                                let (picks, uniforms) = phase.draw(agent, seed, episodes);
                                let agent = &*agent;
                                let outcomes = picks.iter().enumerate().map(|(e, &qidx)| {
                                    let mut env = PlainSimEnv {
                                        aam: phase.aam,
                                        buffer: phase.buffer,
                                        scale: phase.scale.clone(),
                                    };
                                    let uniforms = &uniforms[e * steps..(e + 1) * steps];
                                    let mut evaluate = |s: &EncodedPlan| agent.evaluate(s);
                                    phase.episode(&mut evaluate, &mut env, qidx, uniforms)
                                });
                                AgentRun::fold(&picks, outcomes).unwrap()
                            }
                        };
                        phase_bits(run, agent)
                    })
                    .collect::<Vec<_>>()
            };
            let sharded = phase_with(Some(EPISODE_SHARDS));
            assert_eq!(sharded, phase_with(Some(1)), "{num_agents} agent(s)");
            assert_eq!(sharded, phase_with(None), "{num_agents} agent(s), plain");
            assert_eq!(sharded.len(), num_agents);
            for (totals, _, rollout) in &sharded {
                assert_eq!(totals[1], 11);
                assert_eq!(rollout.len(), 11 * FossConfig::tiny().max_steps);
            }
        }
    }

    /// A one-relation query has no legal doctor action. Training over a
    /// workload that contains one must skip it quietly (episodes of zero
    /// steps), and inference must hand back the expert plan.
    #[test]
    fn query_without_a_legal_action_trains_and_keeps_the_expert_plan() {
        let world = TestWorld::new(13);
        let single = world.single_relation_query(1);
        for simulated in [true, false] {
            let mut foss = foss_over(
                &world,
                FossConfig {
                    episodes_per_update: 8,
                    use_simulated_env: simulated,
                    ..FossConfig::tiny()
                },
            );
            let queries = vec![world.query.clone(), single.clone()];
            foss.train(&queries, 2).unwrap();
            let inference = inferred(&foss, &single);
            assert_eq!(inference.selected_step, 0);
            assert_eq!(inference.aam_confidence, 0);
            // The episode ends at step 1: the expert plan is the only one.
            assert_eq!(inference.candidates, 1);
            assert_eq!(
                inference.plan.fingerprint(),
                world.opt.optimize(&single).unwrap().fingerprint()
            );
        }
    }

    #[test]
    fn reports_carry_phase_times() {
        let world = TestWorld::new(14);
        let cfg = FossConfig {
            episodes_per_update: 6,
            ..FossConfig::tiny()
        };
        let mut foss = foss_over(&world, cfg);
        let queries = vec![world.query.clone()];
        let boot = foss.bootstrap(&queries, 1).unwrap().phases;
        assert!(boot.episodes_s > 0.0 && boot.aam_epochs_s > 0.0 && boot.accuracy_s > 0.0);
        assert_eq!((boot.ppo_update_s, boot.validation_s), (0.0, 0.0));
        let iter = foss.train_iteration(&queries, 1).unwrap().phases;
        assert!(iter.episodes_s > 0.0 && iter.ppo_update_s > 0.0 && iter.validation_s > 0.0);
        assert!(iter.pair_build_s > 0.0 && iter.aam_epochs_s > 0.0 && iter.accuracy_s > 0.0);
    }

    #[test]
    fn empty_workload_rejected() {
        let world = TestWorld::new(10);
        let mut foss = foss_over(&world, FossConfig::tiny());
        assert!(foss.train_iteration(&[], 1).is_err());
        assert!(foss.bootstrap(&[], 1).is_err());
    }
}
