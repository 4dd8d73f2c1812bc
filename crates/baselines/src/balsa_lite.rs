//! Balsa (Yang et al., SIGMOD 2022), reimplemented on our substrates.
//!
//! Balsa learns a query optimizer *from scratch, without expert
//! demonstrations*: it proposes whole plans (join order **and** join
//! methods) with no anchor on the expert's plan, evaluates them with a
//! learned value model, and improves from execution feedback. The defining
//! behaviours this reimplementation preserves:
//!
//! * no expert fallback — early rounds propose near-random plans, which is
//!   exactly the "catastrophic plans generated during the initial phase"
//!   the paper observed on Stack;
//! * value-model-guided selection among sampled candidates, retrained from
//!   (timeout-clamped) execution latencies each round;
//! * a per-query memory of the best plan observed so far (Balsa's replay of
//!   best found plans).

use std::sync::Arc;

use foss_common::sync::Mutex;
use foss_common::{FxHashMap, QueryId, Result};
use foss_core::encoding::{EncodedPlan, PlanEncoder};
use foss_executor::CachingExecutor;
use foss_optimizer::{Icp, JoinMethod, PhysicalPlan, TraditionalOptimizer, ALL_JOIN_METHODS};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::support::ExecRecorder;
use crate::value_model::PlanValueModel;
use crate::{random_connected_order, LearnedOptimizer};

/// Candidate plans sampled per query per round.
const CANDIDATES: usize = 8;

/// The Balsa-lite baseline.
pub struct BalsaLite {
    recorder: ExecRecorder,
    model: PlanValueModel,
    samples: Vec<(EncodedPlan, f32)>,
    best_seen: FxHashMap<QueryId, (Icp, f64)>,
    /// Behind a lock: candidate sampling draws randomness during planning,
    /// which is `&self` (see [`LearnedOptimizer::plan`]).
    rng: Mutex<StdRng>,
    epsilon: f64,
}

impl BalsaLite {
    /// Assemble Balsa-lite.
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
            epsilon: 0.6,
        }
    }

    fn random_icp(&self, query: &Query) -> Icp {
        let mut rng = self.rng.lock();
        let order = random_connected_order(query, &mut rng);
        let methods: Vec<JoinMethod> = (0..order.len().saturating_sub(1))
            .map(|_| ALL_JOIN_METHODS[rng.random_range(0..ALL_JOIN_METHODS.len())])
            .collect();
        Icp::new(order, methods).expect("random ICP is structurally valid")
    }

    /// Sample candidate plans — from scratch, no expert plan included.
    fn candidates(&self, query: &Query) -> Result<Vec<(Icp, PhysicalPlan)>> {
        let mut out: Vec<(Icp, PhysicalPlan)> = Vec::with_capacity(CANDIDATES + 1);
        if let Some((icp, _)) = self.best_seen.get(&query.id).cloned().map(|v| (v.0, v.1)) {
            let plan = self.recorder.optimizer.optimize_with_hint(query, &icp)?;
            out.push((icp, plan));
        }
        for _ in 0..CANDIDATES {
            let icp = self.random_icp(query);
            if out
                .iter()
                .any(|(i, _)| i.fingerprint() == icp.fingerprint())
            {
                continue;
            }
            let plan = self.recorder.optimizer.optimize_with_hint(query, &icp)?;
            out.push((icp, plan));
        }
        Ok(out)
    }
}

impl LearnedOptimizer for BalsaLite {
    fn name(&self) -> &'static str {
        "Balsa"
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
            let entry = self.best_seen.entry(query.id);
            match entry {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if latency < e.get().1 {
                        e.insert((cands[pick].0.clone(), latency));
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((cands[pick].0.clone(), latency));
                }
            }
        }
        let rng = self.rng.get_mut();
        for _ in 0..2 {
            self.model.train_epoch(&self.samples, rng);
        }
        self.epsilon = (self.epsilon * 0.85).max(0.05);
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

    fn balsa(world: &TestWorld) -> BalsaLite {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        let encoder = PlanEncoder::new(3, world.db.stats().iter().map(|s| s.row_count).collect());
        BalsaLite::new(Arc::new(world.opt.clone()), executor, encoder, 13)
    }

    #[test]
    fn candidates_do_not_anchor_on_expert() {
        let world = TestWorld::new(1);
        let b = balsa(&world);
        let expert_fp = world.original.fingerprint();
        // Over many fresh samples, candidates are random — some may happen
        // to equal the expert plan, but the *mechanism* includes no expert
        // call. Check the first round's candidates are diverse.
        let cands = b.candidates(&world.query).unwrap();
        assert!(cands.len() >= 3);
        let distinct: std::collections::HashSet<u64> =
            cands.iter().map(|(_, p)| p.fingerprint()).collect();
        assert!(distinct.len() >= 3, "candidates not diverse");
        let _ = expert_fp;
    }

    #[test]
    fn best_seen_improves_monotonically() {
        let world = TestWorld::new(2);
        let mut b = balsa(&world);
        let queries = vec![world.query.clone()];
        let mut lat_history = Vec::new();
        for _ in 0..5 {
            b.train_round(&queries).unwrap();
            lat_history.push(b.best_seen[&world.query.id].1);
        }
        for w in lat_history.windows(2) {
            assert!(w[1] <= w[0], "best-seen latency regressed: {lat_history:?}");
        }
    }

    #[test]
    fn plans_after_training() {
        let world = TestWorld::new(3);
        let mut b = balsa(&world);
        b.train_round(std::slice::from_ref(&world.query)).unwrap();
        let plan = b.plan(&world.query).unwrap();
        assert!(plan.is_left_deep());
    }
}
