//! Loger (Chen et al., VLDB 2023), reimplemented on our substrates.
//!
//! Loger, like Balsa, learns join orders bottom-up — but it "restricts
//! specific join methods instead of directly selecting one for each join":
//! the expert's cost model keeps the method decision, which makes Loger far
//! more robust than Balsa. This reimplementation keeps exactly that split:
//!
//! * the learner proposes *join orders* (expert-seeded + mutations — Loger
//!   leverages optimizer knowledge, unlike Balsa);
//! * each order is completed by the expert via leading-order steering, so
//!   join methods come from the cost model;
//! * a value model ranks the completed candidates, trained on execution
//!   latency.

use std::sync::Arc;

use foss_common::sync::Mutex;
use foss_common::{FxHashMap, QueryId, Result};
use foss_core::encoding::{EncodedPlan, PlanEncoder};
use foss_executor::CachingExecutor;
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::support::ExecRecorder;
use crate::value_model::PlanValueModel;
use crate::{random_connected_order, LearnedOptimizer};

/// Candidate orders sampled per query per round.
const CANDIDATES: usize = 6;

/// The Loger-lite baseline.
pub struct LogerLite {
    recorder: ExecRecorder,
    model: PlanValueModel,
    samples: Vec<(EncodedPlan, f32)>,
    best_seen: FxHashMap<QueryId, (Vec<usize>, f64)>,
    /// Behind a lock: order mutation draws randomness during planning,
    /// which is `&self` (see [`LearnedOptimizer::plan`]).
    rng: Mutex<StdRng>,
    epsilon: f64,
}

impl LogerLite {
    /// Assemble Loger-lite.
    pub fn new(
        optimizer: Arc<TraditionalOptimizer>,
        executor: Arc<CachingExecutor>,
        encoder: PlanEncoder,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = PlanValueModel::new(encoder.table_vocab(), &mut rng);
        Self {
            recorder: ExecRecorder::new(optimizer, executor, encoder),
            model,
            samples: Vec::new(),
            best_seen: FxHashMap::default(),
            rng: Mutex::new(rng),
            epsilon: 0.4,
        }
    }

    fn mutate_order(&self, order: &[usize]) -> Vec<usize> {
        let mut out = order.to_vec();
        if out.len() >= 2 {
            let mut rng = self.rng.lock();
            let i = rng.random_range(0..out.len());
            let j = rng.random_range(0..out.len());
            out.swap(i, j);
        }
        out
    }

    /// Candidate join orders: expert order, best-seen, mutations, random.
    fn candidate_orders(&self, query: &Query) -> Result<Vec<Vec<usize>>> {
        let expert = self
            .recorder
            .optimizer
            .optimize(query)?
            .extract_icp()?
            .order;
        let mut orders = vec![expert.clone()];
        if let Some((best, _)) = self.best_seen.get(&query.id).cloned() {
            if best != expert {
                orders.push(best.clone());
            }
            orders.push(self.mutate_order(&best));
        }
        orders.push(self.mutate_order(&expert));
        while orders.len() < CANDIDATES {
            orders.push(random_connected_order(query, &mut self.rng.lock()));
        }
        orders.dedup();
        Ok(orders)
    }

    fn candidates(&self, query: &Query) -> Result<Vec<(Vec<usize>, PhysicalPlan)>> {
        let orders = self.candidate_orders(query)?;
        let mut out: Vec<(Vec<usize>, PhysicalPlan)> = Vec::with_capacity(orders.len());
        for order in orders {
            // Methods stay with the expert: leading-order steering only.
            let plan = self
                .recorder
                .optimizer
                .optimize_with_leading(query, &order)?;
            if out
                .iter()
                .all(|(_, p)| p.fingerprint() != plan.fingerprint())
            {
                out.push((order, plan));
            }
        }
        Ok(out)
    }
}

impl LearnedOptimizer for LogerLite {
    fn name(&self) -> &'static str {
        "Loger"
    }

    fn train_round(&mut self, queries: &[Query]) -> Result<()> {
        for query in queries {
            if query.relation_count() < 2 {
                continue;
            }
            let cands = self.candidates(query)?;
            let encs: Vec<EncodedPlan> = cands
                .iter()
                .map(|(_, p)| self.recorder.encode(query, p))
                .collect();
            let explore = self.rng.lock().random_range(0.0..1.0) < self.epsilon;
            let pick = if explore {
                self.rng.lock().random_range(0..cands.len())
            } else {
                let refs: Vec<&EncodedPlan> = encs.iter().collect();
                self.model.best_of(&refs)
            };
            let latency = self.recorder.measure(query, &cands[pick].1)?;
            self.samples
                .push((encs[pick].clone(), (latency.max(1.0) as f32).ln()));
            let better = self
                .best_seen
                .get(&query.id)
                .is_none_or(|(_, best)| latency < *best);
            if better {
                self.best_seen
                    .insert(query.id, (cands[pick].0.clone(), latency));
            }
        }
        let rng = self.rng.get_mut();
        for _ in 0..2 {
            self.model.train_epoch(&self.samples, rng);
        }
        self.epsilon = (self.epsilon * 0.8).max(0.05);
        Ok(())
    }

    fn plan_rng(&self) -> Option<&Mutex<StdRng>> {
        Some(&self.rng)
    }

    fn plan(&self, query: &Query) -> Result<PhysicalPlan> {
        if query.relation_count() < 2 {
            return self.recorder.optimizer.optimize(query);
        }
        let cands = self.candidates(query)?;
        let encs: Vec<EncodedPlan> = cands
            .iter()
            .map(|(_, p)| self.recorder.encode(query, p))
            .collect();
        let refs: Vec<&EncodedPlan> = encs.iter().collect();
        let best = self.model.best_of(&refs);
        Ok(cands.into_iter().nth(best).unwrap().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_core::envs::tests_support::TestWorld;

    fn loger(world: &TestWorld) -> LogerLite {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        let encoder = PlanEncoder::new(3, world.db.stats().iter().map(|s| s.row_count).collect());
        LogerLite::new(Arc::new(world.opt.clone()), executor, encoder, 17)
    }

    #[test]
    fn candidates_include_expert_order() {
        let world = TestWorld::new(1);
        let l = loger(&world);
        let expert_order = world.original.extract_icp().unwrap().order;
        let cands = l.candidates(&world.query).unwrap();
        assert!(cands.iter().any(|(o, _)| *o == expert_order));
    }

    #[test]
    fn methods_come_from_the_expert() {
        // Every candidate must coincide with the expert's method choice for
        // its own order (leading steering picks methods by cost).
        let world = TestWorld::new(2);
        let l = loger(&world);
        for (order, plan) in l.candidates(&world.query).unwrap() {
            let direct = l
                .recorder
                .optimizer
                .optimize_with_leading(&world.query, &order)
                .unwrap();
            assert_eq!(plan.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn trains_and_plans() {
        let world = TestWorld::new(3);
        let mut l = loger(&world);
        let queries = vec![world.query.clone()];
        for _ in 0..2 {
            l.train_round(&queries).unwrap();
        }
        let plan = l.plan(&world.query).unwrap();
        assert!(plan.is_left_deep());
        assert!(l.best_seen.contains_key(&world.query.id));
    }
}
