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

use foss_common::Result;
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::random_connected_order;
use crate::support::{Generator, Learner};

/// Candidate orders sampled per query per round.
const CANDIDATES: usize = 6;

/// The Loger-lite baseline.
pub type LogerLite = Learner<JoinOrders>;

/// Loger's candidates: join orders (the expert's, the best-seen, mutations
/// of both, random ones), each completed by the expert.
pub struct JoinOrders;

impl Generator for JoinOrders {
    const NAME: &'static str = "Loger";
    const EPSILON: f64 = 0.4;
    const DECAY: f64 = 0.8;
    const SKIPS_SINGLE_RELATION: bool = true;
    type Key = Vec<usize>;

    fn candidates(
        optimizer: &TraditionalOptimizer,
        query: &Query,
        best: Option<&Vec<usize>>,
        rng: &mut StdRng,
    ) -> Result<Vec<(Vec<usize>, PhysicalPlan)>> {
        let expert = optimizer.optimize(query)?.extract_icp()?.order;
        let mut orders = vec![expert.clone()];
        if let Some(best) = best {
            if *best != expert {
                orders.push(best.clone());
            }
            orders.push(mutate_order(best, rng));
        }
        orders.push(mutate_order(&expert, rng));
        while orders.len() < CANDIDATES {
            orders.push(random_connected_order(query, rng));
        }
        orders.dedup();
        let mut out: Vec<(Vec<usize>, PhysicalPlan)> = Vec::with_capacity(orders.len());
        for order in orders {
            // Methods stay with the expert: leading-order steering only.
            let plan = optimizer.optimize_with_leading(query, &order)?;
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

/// `order` with two random positions swapped.
fn mutate_order(order: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut out = order.to_vec();
    if out.len() >= 2 {
        let i = rng.random_range(0..out.len());
        let j = rng.random_range(0..out.len());
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::tests::{candidates, learner};
    use crate::LearnedOptimizer;
    use foss_core::envs::tests_support::TestWorld;

    #[test]
    fn candidates_include_expert_order() {
        let world = TestWorld::new(1);
        let expert_order = world.original.extract_icp().unwrap().order;
        let cands = candidates::<JoinOrders>(&world, 17);
        assert!(cands.iter().any(|(o, _)| *o == expert_order));
    }

    #[test]
    fn methods_come_from_the_expert() {
        // Every candidate must coincide with the expert's method choice for
        // its own order (leading steering picks methods by cost).
        let world = TestWorld::new(2);
        for (order, plan) in candidates::<JoinOrders>(&world, 17) {
            let direct = world
                .opt
                .optimize_with_leading(&world.query, &order)
                .unwrap();
            assert_eq!(plan.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn trains_and_plans() {
        let world = TestWorld::new(3);
        let mut l: LogerLite = learner(&world, 17);
        let queries = vec![world.query.clone()];
        for _ in 0..2 {
            l.train_round(&queries).unwrap();
        }
        let plan = l.plan(&world.query).unwrap();
        assert!(plan.is_left_deep());
        assert!(l.best_seen.contains_key(&world.query.id));
    }
}
