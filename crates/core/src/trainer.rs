//! The FOSS training loop (Fig. 3) and inference facade.
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
//! 3. **Inference** — each agent greedily repairs the expert plan; the AAM
//!    tournament picks the final plan among candidates (and among agents in
//!    multi-agent mode).

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
use crate::envs::{RealEnv, SimEnv};
use crate::episode::{run_episode, run_episode_predrawn, PlanCtx};
use crate::execbuf::{ExecutedPlan, ExecutionBuffer};
use crate::snapshot::PlannerSnapshot;

/// Number of shards one agent's simulated episodes are split into. Shard
/// boundaries are a pure function of the episode count (never of the host's
/// core count) and outcomes are merged in episode order, so the phase is
/// bit-for-bit the sequential loop on any machine.
const EPISODE_SHARDS: usize = 8;

/// Wall-clock seconds of each phase of one [`Foss::bootstrap`] or
/// [`Foss::train_iteration`] call, in the order the phases run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// The episode phase: simulated episodes, fanned out over
    /// `EPISODE_SHARDS` threads per agent (real-environment episodes, on one
    /// thread, in bootstrap and off-simulated mode). Agents run side by
    /// side; this is the slowest agent's time.
    pub episodes_s: f64,
    /// PPO updates (one thread per agent; the slowest agent's time).
    pub ppo_update_s: f64,
    /// Real executions of promising and randomly sampled candidates.
    pub validation_s: f64,
    /// Building the AAM's labelled pairs from the execution buffer.
    pub pair_build_s: f64,
    /// AAM training epochs (each minibatch on four gradient shards).
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

/// Result of one inference call with provenance metadata.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The selected plan.
    pub plan: PhysicalPlan,
    /// How many doctor steps the selected plan is from the original
    /// (0 = the expert plan was kept).
    pub selected_step: usize,
    /// Number of candidate plans considered.
    pub candidates: usize,
    /// AAM advantage score of the selected plan over the expert plan
    /// (0 when the expert plan was kept; `K-1` is the strongest verdict).
    /// The serving path uses this for its low-confidence fallback.
    pub aam_confidence: usize,
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

/// What one simulated episode contributes to its agent's [`AgentRun`].
struct EpisodeOutcome {
    reward: f32,
    /// The episode's output plan when it differs from the expert's.
    promising: Option<PlanCtx>,
    transitions: Vec<Transition<EncodedPlan>>,
}

/// Everything an iteration's simulated episodes read. All of it is frozen
/// for the phase — policy weights, AAM and buffer only change after it — so
/// an episode is a pure function of its pre-drawn randomness and episodes
/// can run on any thread in any order.
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
    fn run(
        &self,
        agent: &mut PlannerAgent,
        query_seed: u64,
        episodes: usize,
        shards: usize,
    ) -> Result<AgentRun> {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(query_seed);
        let picks: Vec<usize> = (0..episodes)
            .map(|_| rng.random_range(0..self.queries.len()))
            .collect();
        let steps = self.cfg.max_steps;
        let uniforms = agent.draw_uniforms(episodes * steps);
        let agent = &*agent;

        let per_shard = episodes.div_ceil(shards).max(1);
        let outcomes = foss_common::run_sharded(episodes.div_ceil(per_shard), |si| {
            (si * per_shard..((si + 1) * per_shard).min(episodes))
                .map(|e| self.episode(agent, picks[e], &uniforms[e * steps..(e + 1) * steps]))
                .collect::<Result<Vec<EpisodeOutcome>>>()
        });

        let mut run = AgentRun::default();
        for shard in outcomes {
            for outcome in shard? {
                run.reward_sum += outcome.reward;
                if let Some(ctx) = outcome.promising {
                    run.promising.push((picks[run.episodes], ctx));
                }
                run.rollout.push_episode(outcome.transitions);
                run.episodes += 1;
            }
        }
        run.episodes_s = started.elapsed().as_secs_f64();
        Ok(run)
    }

    fn episode(
        &self,
        agent: &PlannerAgent,
        qidx: usize,
        uniforms: &[f32],
    ) -> Result<EpisodeOutcome> {
        let query = &self.queries[qidx];
        let original = self
            .originals
            .get(&query.id)
            .expect("originals are resolved before the phase");
        let mut env = SimEnv::new(self.aam, self.buffer, self.scale.clone());
        let res = run_episode_predrawn(
            agent,
            uniforms,
            self.optimizer,
            self.encoder,
            self.space,
            query,
            original,
            &mut env,
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
    /// initial AAM. `episodes_per_query` real episodes are run per query.
    pub fn bootstrap(
        &mut self,
        queries: &[Query],
        episodes_per_query: usize,
    ) -> Result<TrainReport> {
        let mut phases = PhaseTimes::default();
        let started = Instant::now();
        let mut agents = std::mem::take(&mut self.agents);
        let mut result = Ok(());
        'outer: for query in queries {
            let original = match self.original_plan(query) {
                Ok(p) => p,
                Err(e) => {
                    result = Err(e);
                    break 'outer;
                }
            };
            for e in 0..episodes_per_query {
                let n_agents = agents.len();
                let agent = &mut agents[e % n_agents];
                let mut env = RealEnv::new(
                    &self.executor,
                    &mut self.buffer,
                    self.scale.clone(),
                    self.cfg.timeout_factor,
                );
                if let Err(e) = run_episode(
                    agent,
                    &self.optimizer,
                    &self.encoder,
                    &self.space,
                    query,
                    &original,
                    &mut env,
                    &self.cfg,
                    false,
                ) {
                    result = Err(e);
                    break 'outer;
                }
            }
        }
        self.agents = agents;
        result?;
        phases.episodes_s = started.elapsed().as_secs_f64();
        let (loss, acc) = self.retrain_aam(&mut phases);
        Ok(TrainReport {
            iteration: 0,
            aam_loss: loss,
            aam_accuracy: acc,
            mean_reward: 0.0,
            plans_executed: self.executor.executions(),
            buffer_plans: self.buffer.total_plans(),
            phases,
        })
    }

    /// Retrain the AAM from the buffer: `(last epoch's loss, accuracy)`.
    fn retrain_aam(&mut self, phases: &mut PhaseTimes) -> (f32, f32) {
        let started = Instant::now();
        let pairs = self.buffer.training_pairs(&self.scale, 200, &mut self.rng);
        phases.pair_build_s = started.elapsed().as_secs_f64();
        if pairs.is_empty() {
            return (0.0, 0.0);
        }
        let started = Instant::now();
        let mut loss = 0.0;
        for _ in 0..self.cfg.aam_epochs {
            loss = self.aam.train_epoch(&pairs, &mut self.rng);
        }
        phases.aam_epochs_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let accuracy = self.aam.accuracy(&pairs);
        phases.accuracy_s = started.elapsed().as_secs_f64();
        (loss, accuracy)
    }

    /// The frozen view of `self` an iteration's simulated episodes read.
    fn sim_phase<'a>(&'a self, queries: &'a [Query]) -> SimPhase<'a> {
        SimPhase {
            queries,
            originals: &self.originals,
            optimizer: &self.optimizer,
            encoder: &self.encoder,
            space: &self.space,
            aam: &self.aam,
            buffer: &self.buffer,
            scale: &self.scale,
            cfg: &self.cfg,
        }
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
        if queries.is_empty() {
            return Err(FossError::InvalidQuery("empty training workload".into()));
        }
        for query in queries {
            self.original_plan(query)?;
        }
        let episodes = self.episodes_per_agent();
        let seed = self.episode_query_seed(iteration, 0);
        let mut agents = std::mem::take(&mut self.agents);
        let run = self
            .sim_phase(queries)
            .run(&mut agents[0], seed, episodes, EPISODE_SHARDS);
        self.agents = agents;
        let run = run?;
        Ok(run.reward_sum / run.episodes.max(1) as f32)
    }

    /// Phase 2: one training iteration (agent updates + validation + AAM
    /// retraining). `queries` is the training workload.
    pub fn train_iteration(&mut self, queries: &[Query], iteration: usize) -> Result<TrainReport> {
        if queries.is_empty() {
            return Err(FossError::InvalidQuery("empty training workload".into()));
        }
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
            for query in queries {
                self.original_plan(query)?;
            }
            let seeds: Vec<u64> = (0..self.agents.len())
                .map(|a| self.episode_query_seed(iteration, a))
                .collect();
            let mut agents = std::mem::take(&mut self.agents);
            let phase = self.sim_phase(queries);
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
            self.agents = agents;
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
            let mut agents = std::mem::take(&mut self.agents);
            let result = (|| -> Result<()> {
                for agent in agents.iter_mut() {
                    let started = Instant::now();
                    let mut rollout = RolloutBuffer::new();
                    for _ in 0..episodes_per_agent {
                        let qidx = self.rng.random_range(0..queries.len());
                        let query = &queries[qidx];
                        let original = self.original_plan(query)?;
                        let mut env = RealEnv::new(
                            &self.executor,
                            &mut self.buffer,
                            self.scale.clone(),
                            self.cfg.timeout_factor,
                        );
                        let res = run_episode(
                            agent,
                            &self.optimizer,
                            &self.encoder,
                            &self.space,
                            query,
                            &original,
                            &mut env,
                            &self.cfg,
                            false,
                        )?;
                        mean_reward += res.total_reward;
                        episodes_run += 1;
                        rollout.push_episode(res.transitions);
                    }
                    phases.episodes_s += started.elapsed().as_secs_f64();
                    let started = Instant::now();
                    let batch = rollout.finish(agent.gamma(), agent.lambda());
                    agent.update(&batch);
                    phases.ppo_update_s += started.elapsed().as_secs_f64();
                }
                Ok(())
            })();
            self.agents = agents;
            result?;
        }

        // Promising-plan validation (§V-B / Table II "Off-Validation").
        let started = Instant::now();
        if self.cfg.validate_promising {
            promising.truncate(self.cfg.promising_per_update);
            for (qidx, ctx) in promising {
                let query = &queries[qidx];
                self.execute_and_record(query, &ctx)?;
            }
        }
        // Random candidate sampling for extra AAM data.
        for _ in 0..self.cfg.random_validation_per_update {
            let qidx = self.rng.random_range(0..queries.len());
            let query = queries[qidx].clone();
            let original = self.original_plan(&query)?;
            let mut agents = std::mem::take(&mut self.agents);
            let agent_idx = self.rng.random_range(0..agents.len());
            let res = {
                let mut env = SimEnv::new(&self.aam, &self.buffer, self.scale.clone());
                run_episode(
                    &mut agents[agent_idx],
                    &self.optimizer,
                    &self.encoder,
                    &self.space,
                    &query,
                    &original,
                    &mut env,
                    &self.cfg,
                    false,
                )
            };
            self.agents = agents;
            for ctx in res?.visited {
                self.execute_and_record(&query, &ctx)?;
            }
        }

        phases.validation_s = started.elapsed().as_secs_f64();

        let (loss, acc) = self.retrain_aam(&mut phases);
        Ok(TrainReport {
            iteration,
            aam_loss: loss,
            aam_accuracy: acc,
            mean_reward: mean_reward / episodes_run.max(1) as f32,
            plans_executed: self.executor.executions(),
            buffer_plans: self.buffer.total_plans(),
            phases,
        })
    }

    /// Execute `ctx` for real under the dynamic timeout and store the result.
    fn execute_and_record(&mut self, query: &Query, ctx: &PlanCtx) -> Result<()> {
        // Ensure the original is measured (budget anchor).
        if self.buffer.original(query.id).is_none() {
            let original = self.original_plan(query)?;
            let out = self.executor.execute(query, &original, None)?;
            let icp = original.extract_icp()?;
            let encoded = self.encoder.encode(query, &original, 0.0);
            self.buffer.record_original(
                query.id,
                ExecutedPlan {
                    icp,
                    plan: original,
                    encoded,
                    latency: out.latency,
                    timed_out: false,
                },
            );
        }
        if self.buffer.contains(query.id, &ctx.icp) {
            return Ok(());
        }
        let budget = self
            .buffer
            .original(query.id)
            .map(|o| o.latency)
            .unwrap_or(f64::INFINITY)
            * self.cfg.timeout_factor;
        let (latency, timed_out) = match self.executor.execute(query, &ctx.plan, Some(budget)) {
            Ok(out) => (out.latency, false),
            Err(FossError::Timeout { .. }) => (budget, true),
            Err(e) => return Err(e),
        };
        self.buffer.record(
            query.id,
            ExecutedPlan {
                icp: ctx.icp.clone(),
                plan: ctx.plan.clone(),
                encoded: ctx.encoded.clone(),
                latency,
                timed_out,
            },
        );
        Ok(())
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

    /// Inference: repair `query`'s expert plan and select with the AAM.
    ///
    /// Read-only: the training state is untouched, so inference can run
    /// between (or concurrently with readers of) training rounds. For
    /// serving across threads, publish a [`PlannerSnapshot`] instead.
    pub fn optimize(&self, query: &Query) -> Result<PhysicalPlan> {
        Ok(self.optimize_detailed(query)?.plan)
    }

    /// Inference with provenance (selected step, candidate count, AAM
    /// confidence). Same read-only pipeline as
    /// [`PlannerSnapshot::optimize_detailed`] — plans are bit-identical.
    pub fn optimize_detailed(&self, query: &Query) -> Result<Inference> {
        let original = match self.originals.get(&query.id) {
            Some(p) => p.clone(),
            None => self.optimizer.optimize(query)?,
        };
        let policies: Vec<&dyn crate::agent::PlanPolicy> = self
            .agents
            .iter()
            .map(|a| a as &dyn crate::agent::PlanPolicy)
            .collect();
        crate::snapshot::infer(
            &policies,
            &self.aam,
            &self.optimizer,
            &self.encoder,
            &self.space,
            &self.cfg,
            query,
            &original,
        )
    }

    /// Freeze the current planner into an immutable [`PlannerSnapshot`]
    /// (frozen agent policies, AAM weights and the training queries' expert
    /// plans behind `Arc`s). The snapshot is a deep copy: subsequent training
    /// rounds do not affect plans served from it. The execution buffer is
    /// not part of it — inference never reads the buffer. Publish through a
    /// [`crate::snapshot::SnapshotCell`] for hot model swaps.
    pub fn snapshot(&self) -> PlannerSnapshot {
        PlannerSnapshot::new(
            self.cfg.clone(),
            self.optimizer.clone(),
            Arc::new(self.encoder.clone()),
            Arc::new(self.space),
            Arc::new(self.agents.iter().map(|a| a.freeze()).collect()),
            Arc::new(self.aam.clone()),
            Arc::new(self.originals.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::tests_support::TestWorld;

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
        let inf = foss.optimize_detailed(&world.query).unwrap();
        assert!(inf.selected_step <= foss.config().max_steps);
        // The plan must execute and give the correct result cardinality.
        let exec = CachingExecutor::new(world.db.clone(), *world.opt.cost_model());
        let chosen = exec.execute(&world.query, &inf.plan, None).unwrap();
        let orig = exec.execute(&world.query, &world.original, None).unwrap();
        assert_eq!(chosen.rows, orig.rows, "FOSS must preserve query semantics");
    }

    #[test]
    fn multi_agent_mode_runs() {
        let world = TestWorld::new(8);
        let cfg = FossConfig {
            num_agents: 2,
            episodes_per_update: 4,
            ..FossConfig::tiny()
        };
        let mut foss = foss_over(&world, cfg);
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        let inf = foss.optimize_detailed(&world.query).unwrap();
        assert_eq!(inf.candidates, 2 * 4);
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
            let plan = foss.optimize(&world.query).unwrap().fingerprint();
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

    /// The fan-out must not be observable: the production shard count and a
    /// single inline shard yield the same reward bits, promising list and
    /// rollout order — so nothing depends on how many cores ran the shards.
    #[test]
    fn sharded_episode_phase_equals_the_inline_phase() {
        for num_agents in [1usize, 3] {
            let world = TestWorld::new(12);
            let mut second = world.query.clone();
            second.id = QueryId::new(1);
            let queries = vec![world.query.clone(), second];
            let phase_with = |shards: usize| {
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
                let mut agents = std::mem::take(&mut foss.agents);
                let phase = foss.sim_phase(&queries);
                agents
                    .iter_mut()
                    .zip(seeds)
                    .map(|(agent, seed)| {
                        let run = phase.run(agent, seed, episodes, shards).unwrap();
                        phase_bits(run, agent)
                    })
                    .collect::<Vec<_>>()
            };
            let sharded = phase_with(EPISODE_SHARDS);
            assert_eq!(sharded, phase_with(1), "{num_agents} agent(s)");
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
            let inference = foss.optimize_detailed(&single).unwrap();
            assert_eq!(inference.selected_step, 0);
            assert_eq!(inference.aam_confidence, 0);
            assert_eq!(
                inference.plan.fingerprint(),
                world.opt.optimize(&single).unwrap().fingerprint()
            );
            let served = foss.snapshot().optimize_detailed(&single).unwrap();
            assert_eq!(served.selected_step, 0);
            assert_eq!(served.plan.fingerprint(), inference.plan.fingerprint());
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
    }
}
