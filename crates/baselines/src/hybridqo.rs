//! HybridQO (Yu et al., VLDB 2022), reimplemented on our substrates.
//!
//! HybridQO runs MCTS over *leading join-order prefixes*, hands the
//! promising prefixes to the traditional optimizer as hints, and picks among
//! the completed candidate plans with a learned model. We keep that
//! hint-generation pipeline with a UCT search over prefix extensions whose
//! rollout reward is the (negated, normalised) estimated cost of the
//! prefix-completed plan.

use std::sync::Arc;

use foss_common::sync::Mutex;
use foss_common::{FxHashMap, Result};
use foss_core::encoding::{EncodedPlan, PlanEncoder};
use foss_executor::CachingExecutor;
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::support::ExecRecorder;
use crate::value_model::PlanValueModel;
use crate::LearnedOptimizer;

/// How many leading-prefix hints survive the search.
pub const TOP_PREFIXES: usize = 4;
/// UCT iterations per query.
const UCT_ITERS: usize = 48;
/// Maximum prefix length explored.
const MAX_PREFIX: usize = 3;

/// The HybridQO baseline.
pub struct HybridQo {
    recorder: ExecRecorder,
    model: PlanValueModel,
    samples: Vec<(EncodedPlan, f32)>,
    /// Behind a lock because the UCT search draws randomness during
    /// *planning*, which is `&self` (see [`LearnedOptimizer::plan`]).
    rng: Mutex<StdRng>,
    epsilon: f64,
}

impl HybridQo {
    /// Assemble HybridQO.
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
            rng: Mutex::new(rng),
            epsilon: 0.4,
        }
    }

    /// UCT over prefix space; returns the best-scoring prefixes.
    fn search_prefixes(&self, query: &Query) -> Vec<Vec<usize>> {
        let n = query.relation_count();
        // Node statistics keyed by prefix.
        let mut visits: FxHashMap<Vec<usize>, (f64, u32)> = FxHashMap::default();
        let cost_of = |prefix: &[usize], opt: &TraditionalOptimizer| -> f64 {
            opt.optimize_with_leading(query, prefix)
                .map(|p| p.est_cost())
                .unwrap_or(f64::INFINITY)
        };
        let base = cost_of(&[0], &self.recorder.optimizer).max(1.0);
        for _ in 0..UCT_ITERS {
            // Selection: walk down from the empty prefix by UCT.
            let mut prefix: Vec<usize> = Vec::new();
            while prefix.len() < MAX_PREFIX.min(n) {
                let parent_visits = visits.get(&prefix).map_or(1, |s| s.1).max(1) as f64;
                let mut best: Option<(f64, usize)> = None;
                for r in 0..n {
                    if prefix.contains(&r) {
                        continue;
                    }
                    if !prefix.is_empty() && query.edges_between_set(&prefix, r).is_empty() {
                        continue;
                    }
                    let mut child = prefix.clone();
                    child.push(r);
                    let (reward_sum, count) = visits.get(&child).copied().unwrap_or((0.0, 0));
                    let uct = if count == 0 {
                        f64::INFINITY
                    } else {
                        reward_sum / count as f64 + 1.4 * (parent_visits.ln() / count as f64).sqrt()
                    };
                    if best.as_ref().is_none_or(|(b, _)| uct > *b) {
                        best = Some((uct, r));
                    }
                }
                let Some((_, r)) = best else { break };
                prefix.push(r);
                if self.rng.lock().random_range(0.0..1.0) < 0.3 {
                    break; // stochastic depth, keeps short prefixes sampled
                }
            }
            if prefix.is_empty() {
                continue;
            }
            // Rollout: completed-plan estimated cost → normalised reward.
            let cost = cost_of(&prefix, &self.recorder.optimizer);
            let reward = (base / cost.max(1.0)).min(10.0);
            // Backpropagate along all prefixes of the path.
            for end in 1..=prefix.len() {
                let e = visits.entry(prefix[..end].to_vec()).or_insert((0.0, 0));
                e.0 += reward;
                e.1 += 1;
            }
        }
        let mut scored: Vec<(Vec<usize>, f64)> = visits
            .into_iter()
            .filter(|(p, _)| !p.is_empty())
            .map(|(p, (r, c))| (p, r / c.max(1) as f64))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(TOP_PREFIXES);
        scored.into_iter().map(|(p, _)| p).collect()
    }

    fn candidates(&self, query: &Query) -> Result<Vec<PhysicalPlan>> {
        let mut out = vec![self.recorder.optimizer.optimize(query)?];
        for prefix in self.search_prefixes(query) {
            if let Ok(plan) = self
                .recorder
                .optimizer
                .optimize_with_leading(query, &prefix)
            {
                if out.iter().all(|p| p.fingerprint() != plan.fingerprint()) {
                    out.push(plan);
                }
            }
        }
        Ok(out)
    }
}

impl LearnedOptimizer for HybridQo {
    fn name(&self) -> &'static str {
        "HybridQO"
    }

    fn train_round(&mut self, queries: &[Query]) -> Result<()> {
        for query in queries {
            let cands = self.candidates(query)?;
            let encs: Vec<EncodedPlan> = cands
                .iter()
                .map(|p| self.recorder.encode(query, p))
                .collect();
            let explore = self.rng.lock().random_range(0.0..1.0) < self.epsilon;
            let pick = if explore {
                self.rng.lock().random_range(0..cands.len())
            } else {
                let refs: Vec<&EncodedPlan> = encs.iter().collect();
                self.model.best_of(&refs)
            };
            let latency = self.recorder.measure(query, &cands[pick])?;
            self.samples
                .push((encs[pick].clone(), (latency.max(1.0) as f32).ln()));
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
        let cands = self.candidates(query)?;
        let encs: Vec<EncodedPlan> = cands
            .iter()
            .map(|p| self.recorder.encode(query, p))
            .collect();
        let refs: Vec<&EncodedPlan> = encs.iter().collect();
        let best = self.model.best_of(&refs);
        Ok(cands.into_iter().nth(best).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_core::envs::tests_support::TestWorld;

    fn hqo(world: &TestWorld) -> HybridQo {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        let encoder = PlanEncoder::new(3, world.db.stats().iter().map(|s| s.row_count).collect());
        HybridQo::new(Arc::new(world.opt.clone()), executor, encoder, 11)
    }

    #[test]
    fn prefix_search_returns_valid_prefixes() {
        let world = TestWorld::new(1);
        let h = hqo(&world);
        let prefixes = h.search_prefixes(&world.query);
        assert!(!prefixes.is_empty());
        assert!(prefixes.len() <= TOP_PREFIXES);
        for p in &prefixes {
            assert!(!p.is_empty() && p.len() <= 3);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.len(), "prefix has duplicates: {p:?}");
        }
    }

    #[test]
    fn candidates_respect_their_prefix() {
        let world = TestWorld::new(2);
        let h = hqo(&world);
        let cands = h.candidates(&world.query).unwrap();
        assert!(cands.len() >= 2, "expert + at least one hinted plan");
        for plan in &cands {
            assert!(plan.is_left_deep());
        }
    }

    #[test]
    fn trains_and_plans() {
        let world = TestWorld::new(3);
        let mut h = hqo(&world);
        let queries = vec![world.query.clone()];
        h.train_round(&queries).unwrap();
        let plan = h.plan(&world.query).unwrap();
        assert!(plan.est_cost() > 0.0);
    }
}
