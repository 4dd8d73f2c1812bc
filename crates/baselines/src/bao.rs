//! Bao (Marcus et al., SIGMOD 2021), reimplemented on our substrates.
//!
//! Bao steers the traditional optimizer with coarse hint sets — each arm
//! disables some join operators for the whole query — and trains a value
//! network to pick the arm. We keep its default five arms and an
//! ε-greedy exploration schedule in place of Thompson sampling (documented
//! simplification; both drive exploration of under-observed arms).

use foss_common::Result;
use foss_optimizer::{JoinMethod, PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;

use crate::support::{Generator, Learner};

/// The five hint sets (arm 0 = the unrestricted expert plan).
pub const ARMS: [&[JoinMethod]; 5] = [
    &[JoinMethod::Hash, JoinMethod::Merge, JoinMethod::NestLoop],
    &[JoinMethod::Hash, JoinMethod::Merge],
    &[JoinMethod::Merge, JoinMethod::NestLoop],
    &[JoinMethod::Hash, JoinMethod::NestLoop],
    &[JoinMethod::Hash],
];

/// The Bao baseline.
pub type Bao = Learner<HintSets>;

/// Bao's candidates: the plan per arm (arm 0 is the expert plan).
pub struct HintSets;

impl Generator for HintSets {
    const NAME: &'static str = "Bao";
    const EPSILON: f64 = 0.5;
    const DECAY: f64 = 0.8;
    const SKIPS_SINGLE_RELATION: bool = false;
    type Key = ();

    fn candidates(
        optimizer: &TraditionalOptimizer,
        query: &Query,
        _best: Option<&()>,
        _rng: &mut StdRng,
    ) -> Result<Vec<((), PhysicalPlan)>> {
        let mut out = vec![((), optimizer.optimize(query)?)];
        for arm in &ARMS[1..] {
            out.push(((), optimizer.optimize_with_methods(query, arm)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::tests::{candidates, learner};
    use crate::LearnedOptimizer;
    use foss_core::envs::tests_support::TestWorld;

    #[test]
    fn five_arms_produce_legal_plans() {
        let world = TestWorld::new(1);
        let cands = candidates::<HintSets>(&world, 7);
        assert_eq!(cands.len(), 5);
        for (i, (_, plan)) in cands.iter().enumerate().skip(1) {
            let icp = plan.extract_icp().unwrap();
            for m in icp.methods {
                assert!(ARMS[i].contains(&m), "arm {i} leaked method {m}");
            }
        }
    }

    #[test]
    fn training_and_inference_work() {
        let world = TestWorld::new(2);
        let mut b: Bao = learner(&world, 7);
        let queries = vec![world.query.clone()];
        for _ in 0..3 {
            b.train_round(&queries).unwrap();
        }
        let plan = b.plan(&world.query).unwrap();
        assert!(plan.est_cost() > 0.0);
        // Epsilon decayed.
        assert!(b.epsilon < 0.5);
    }
}
