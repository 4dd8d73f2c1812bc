//! The comparison systems of the paper's evaluation (§VI-A Comparision):
//! PostgreSQL (the expert itself), Bao, HybridQO, Balsa and Loger.
//!
//! Each baseline is a *functional reimplementation of the idea*, scaled to
//! this repository's substrates (see DESIGN.md for the simplification
//! notes):
//!
//! * [`PostgresBaseline`] — the expert optimizer unmodified.
//! * [`Bao`] — plan-steerer: five operator-disabling hint sets, a learned
//!   value model choosing the arm per query.
//! * [`HybridQo`] — plan-steerer: search over *leading join-order prefixes*
//!   used as hints, value model picks among completed candidates.
//! * [`BalsaLite`] — plan-constructor: learns from scratch, proposing whole
//!   join orders + join methods with no expert anchor (and therefore
//!   catastrophic early plans, as the paper observes).
//! * [`LogerLite`] — plan-constructor that *restricts* rather than dictates:
//!   it searches join orders but lets the expert choose join methods.
//!
//! All learned baselines share [`value_model::PlanValueModel`], a
//! transformer-over-plan regression network predicting log-latency — the
//! same role Bao's TCNN value network plays.

pub mod balsa_lite;
pub mod bao;
pub mod hybridqo;
pub mod loger_lite;
pub(crate) mod support;
pub mod value_model;

use foss_common::sync::Mutex;
use foss_common::Result;
use foss_optimizer::PhysicalPlan;
use foss_query::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

pub use balsa_lite::BalsaLite;
pub use bao::Bao;
pub use hybridqo::HybridQo;
pub use loger_lite::LogerLite;
pub use value_model::PlanValueModel;

/// The common interface the experiment harness drives.
///
/// Training and planning are deliberately split across mutability:
/// `train_round` takes `&mut self` (it updates models and replay state),
/// while [`LearnedOptimizer::plan`] takes `&self` — planning is a read-only
/// query over whatever the method has learned so far, so evaluation
/// harnesses and serving front ends can plan without exclusive access.
/// Methods that need randomness during planning keep their RNG behind a
/// lock (the draw order is unchanged in serial use, so seeded experiments
/// reproduce exactly).
pub trait LearnedOptimizer {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// One training round over the workload (may execute plans).
    fn train_round(&mut self, queries: &[Query]) -> Result<()>;

    /// Produce the plan this optimizer would run for `query` (read-only).
    fn plan(&self, query: &Query) -> Result<PhysicalPlan>;

    /// The RNG [`plan`](Self::plan) draws from, if it draws at all. A probe
    /// between training rounds restores it afterwards, so measuring a
    /// method mid-training does not change how it goes on to train.
    fn plan_rng(&self) -> Option<&Mutex<StdRng>> {
        None
    }
}

/// The expert optimizer as a baseline (PostgreSQL row of Table I).
pub struct PostgresBaseline {
    optimizer: std::sync::Arc<foss_optimizer::TraditionalOptimizer>,
}

impl PostgresBaseline {
    /// Wrap the expert.
    pub fn new(optimizer: std::sync::Arc<foss_optimizer::TraditionalOptimizer>) -> Self {
        Self { optimizer }
    }
}

impl LearnedOptimizer for PostgresBaseline {
    fn name(&self) -> &'static str {
        "PostgreSQL"
    }

    fn train_round(&mut self, _queries: &[Query]) -> Result<()> {
        Ok(()) // nothing to learn
    }

    fn plan(&self, query: &Query) -> Result<PhysicalPlan> {
        self.optimizer.optimize(query)
    }
}

/// Sample a uniformly random *connected* left-deep join order (used by the
/// plan-constructor baselines to explore from scratch).
pub fn random_connected_order(query: &Query, rng: &mut StdRng) -> Vec<usize> {
    let n = query.relation_count();
    let mut order = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let first = remaining.swap_remove(rng.random_range(0..n));
    order.push(first);
    while !remaining.is_empty() {
        let mut frontier: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&r| !query.edges_between_set(&order, r).is_empty())
            .collect();
        if frontier.is_empty() {
            // Disconnected queries never occur in our workloads, but stay
            // total: append arbitrarily.
            frontier = remaining.clone();
        }
        frontier.shuffle(rng);
        let pick = frontier[0];
        order.push(pick);
        remaining.retain(|&r| r != pick);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_core::envs::tests_support::TestWorld;
    use rand::SeedableRng;

    #[test]
    fn random_order_is_connected_permutation() {
        let world = TestWorld::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let order = random_connected_order(&world.query, &mut rng);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert!(foss_core::actions::order_is_connected(&world.query, &order));
        }
    }

    #[test]
    fn postgres_baseline_is_stable() {
        let world = TestWorld::new(2);
        let mut pg = PostgresBaseline::new(std::sync::Arc::new(world.opt.clone()));
        pg.train_round(std::slice::from_ref(&world.query)).unwrap();
        let a = pg.plan(&world.query).unwrap();
        let b = pg.plan(&world.query).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(pg.name(), "PostgreSQL");
    }
}
