//! The learner all four learned baselines share.
//!
//! Bao, Balsa, Loger and HybridQO differ only in where their candidate
//! plans come from. Everything else is one loop, owned here by [`Learner`]:
//! per training query, generate candidates, encode them, pick one
//! ε-greedily against the [`PlanValueModel`], execute it under an
//! expert-anchored timeout, keep the `(encoding, ln latency)` sample and
//! the query's best-seen candidate; after the round, fit the model for two
//! epochs and decay ε. Planning generates candidates the same way and
//! returns the one the model ranks fastest.
//!
//! Training draws from one seeded RNG in a fixed order. Planning draws from
//! a fresh RNG derived from (method seed, rounds trained, query id), so a
//! plan is a function of the model and the query alone: it does not depend
//! on what was planned before it, and planning never moves training.

use std::marker::PhantomData;
use std::sync::Arc;

use foss_common::{FossError, FxHashMap, QueryId, Result, SeedStream};
use foss_core::encoding::{EncodedPlan, PlanEncoder};
use foss_executor::CachingExecutor;
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::value_model::PlanValueModel;
use crate::LearnedOptimizer;

/// Timeout factor the baselines run with (more generous than FOSS's 1.5× so
/// that from-scratch learners can still collect signal from bad plans).
const BASELINE_TIMEOUT_FACTOR: f64 = 3.0;

/// Floor ε decays to.
const MIN_EPSILON: f64 = 0.05;

/// Value-model epochs after every training round.
const EPOCHS_PER_ROUND: usize = 2;

/// Where one baseline's candidate plans come from, and its fixed constants.
pub trait Generator {
    /// Display name used in result tables.
    const NAME: &'static str;
    /// Initial exploration rate.
    const EPSILON: f64;
    /// Factor ε shrinks by after every round (down to 0.05).
    const DECAY: f64;
    /// Whether single-relation queries get the expert plan and are not
    /// trained on.
    const SKIPS_SINGLE_RELATION: bool;
    /// What a candidate is remembered by as a query's best-seen plan.
    type Key: Clone;

    /// The candidate plans for `query`, given the best-seen candidate so far
    /// (if any). Randomness comes from `rng` only.
    fn candidates(
        optimizer: &TraditionalOptimizer,
        query: &Query,
        best: Option<&Self::Key>,
        rng: &mut StdRng,
    ) -> Result<Vec<(Self::Key, PhysicalPlan)>>;
}

/// An ε-greedy value-model learner over the candidates of `G`.
pub struct Learner<G: Generator> {
    optimizer: Arc<TraditionalOptimizer>,
    executor: Arc<CachingExecutor>,
    encoder: PlanEncoder,
    /// The expert plan's latency per query (measured once): the anchor of
    /// the timeout.
    expert_latency: FxHashMap<QueryId, f64>,
    model: PlanValueModel,
    samples: Vec<(EncodedPlan, f32)>,
    pub(crate) best_seen: FxHashMap<QueryId, (G::Key, f64)>,
    rng: StdRng,
    pub(crate) epsilon: f64,
    seed: u64,
    rounds: u64,
    generator: PhantomData<G>,
}

impl<G: Generator> Learner<G> {
    /// Assemble the learner over the expert engine and executor.
    pub fn new(
        optimizer: Arc<TraditionalOptimizer>,
        executor: Arc<CachingExecutor>,
        encoder: PlanEncoder,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = PlanValueModel::new(encoder.table_vocab(), &mut rng);
        Self {
            optimizer,
            executor,
            encoder,
            expert_latency: FxHashMap::default(),
            model,
            samples: Vec::new(),
            best_seen: FxHashMap::default(),
            rng,
            epsilon: G::EPSILON,
            seed,
            rounds: 0,
            generator: PhantomData,
        }
    }

    fn skips(query: &Query) -> bool {
        G::SKIPS_SINGLE_RELATION && query.relation_count() < 2
    }

    fn encode(&self, query: &Query, cands: &[(G::Key, PhysicalPlan)]) -> Vec<EncodedPlan> {
        cands
            .iter()
            .map(|(_, p)| self.encoder.encode(query, p, 0.0))
            .collect()
    }

    /// Execute `plan` under the baseline timeout; returns the measured (or
    /// budget-clamped) latency.
    fn measure(&mut self, query: &Query, plan: &PhysicalPlan) -> Result<f64> {
        let expert = match self.expert_latency.get(&query.id) {
            Some(&latency) => latency,
            None => {
                let expert_plan = self.optimizer.optimize(query)?;
                let latency = self.executor.execute(query, &expert_plan, None)?.latency;
                self.expert_latency.insert(query.id, latency);
                latency
            }
        };
        let budget = expert * BASELINE_TIMEOUT_FACTOR;
        match self.executor.execute(query, plan, Some(budget)) {
            Ok(out) => Ok(out.latency),
            Err(FossError::Timeout { .. }) => Ok(budget),
            Err(e) => Err(e),
        }
    }
}

impl<G: Generator> LearnedOptimizer for Learner<G> {
    fn name(&self) -> &'static str {
        G::NAME
    }

    fn train_round(&mut self, queries: &[Query]) -> Result<()> {
        for query in queries {
            if Self::skips(query) {
                continue;
            }
            let best = self.best_seen.get(&query.id).map(|(key, _)| key);
            let cands = G::candidates(&self.optimizer, query, best, &mut self.rng)?;
            let encs = self.encode(query, &cands);
            let pick = if self.rng.random_range(0.0..1.0) < self.epsilon {
                self.rng.random_range(0..cands.len())
            } else {
                self.model.best_of(&encs.iter().collect::<Vec<_>>())
            };
            let latency = self.measure(query, &cands[pick].1)?;
            self.samples
                .push((encs[pick].clone(), (latency.max(1.0) as f32).ln()));
            if self
                .best_seen
                .get(&query.id)
                .is_none_or(|(_, best)| latency < *best)
            {
                self.best_seen
                    .insert(query.id, (cands[pick].0.clone(), latency));
            }
        }
        for _ in 0..EPOCHS_PER_ROUND {
            self.model.train_epoch(&self.samples, &mut self.rng);
        }
        self.epsilon = (self.epsilon * G::DECAY).max(MIN_EPSILON);
        self.rounds += 1;
        Ok(())
    }

    fn plan(&self, query: &Query) -> Result<PhysicalPlan> {
        if Self::skips(query) {
            return self.optimizer.optimize(query);
        }
        let round = SeedStream::new(self.seed).derive_indexed("plan", self.rounds);
        let mut rng = StdRng::seed_from_u64(
            SeedStream::new(round).derive_indexed("query", u64::from(query.id.0)),
        );
        let best = self.best_seen.get(&query.id).map(|(key, _)| key);
        let mut cands = G::candidates(&self.optimizer, query, best, &mut rng)?;
        let encs = self.encode(query, &cands);
        let pick = self.model.best_of(&encs.iter().collect::<Vec<_>>());
        Ok(cands.swap_remove(pick).1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use foss_core::envs::tests_support::TestWorld;

    /// A learner of `G` over `world`'s expert and data.
    pub(crate) fn learner<G: Generator>(world: &TestWorld, seed: u64) -> Learner<G> {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        Learner::new(
            Arc::new(world.opt.clone()),
            executor,
            world.encoder.clone(),
            seed,
        )
    }

    /// `G`'s candidate plans for `world`'s query with no best-seen plan.
    pub(crate) fn candidates<G: Generator>(
        world: &TestWorld,
        seed: u64,
    ) -> Vec<(G::Key, PhysicalPlan)> {
        let mut rng = StdRng::seed_from_u64(seed);
        G::candidates(&world.opt, &world.query, None, &mut rng).unwrap()
    }
}
