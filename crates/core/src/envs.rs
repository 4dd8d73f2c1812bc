//! The two environments of the simulated learner (§V).
//!
//! Both share the optimizer as state transitioner (`Γp`, already used inside
//! [`crate::episode::run_episode`]); they differ only in the reward oracle:
//!
//! * [`RealEnv`] executes plans in the DBMS executor under the dynamic
//!   timeout and feeds the execution buffer — expensive, exact;
//! * [`SimEnv`] asks the asymmetric advantage model — cheap, learned.

use foss_common::{FossError, FxHashMap, Result};
use foss_executor::CachingExecutor;
use foss_query::Query;

use crate::aam::AdvantageModel;
use crate::advantage::AdvantageScale;
use crate::encoding::EncodedPlan;
use crate::episode::PlanCtx;
use crate::execbuf::{ExecutedPlan, ExecutionBuffer};

/// Reward interface used by the episode loop.
pub trait RewardOracle {
    /// Called once per episode with the original plan (real environments
    /// ensure its latency is measured and recorded).
    fn prepare(&mut self, query: &Query, original: &PlanCtx) -> Result<()>;

    /// Discrete advantage `Adv(left, right)` — how much better `right` is.
    fn advantage(&mut self, query: &Query, left: &PlanCtx, right: &PlanCtx) -> usize;

    /// Episode-bounty reference set `(ref plan, refb_i)`, best first.
    fn references(&mut self, query: &Query) -> Vec<(PlanCtx, f64)>;
}

/// `ctx` as the buffer stores it once executed.
fn executed(ctx: &PlanCtx, latency: f64, timed_out: bool) -> ExecutedPlan {
    ExecutedPlan {
        icp: ctx.icp.clone(),
        plan: ctx.plan.clone(),
        encoded: ctx.encoded.clone(),
        latency,
        timed_out,
    }
}

/// The episode-bounty references of both environments: the buffer's
/// executed plans for `query`, best first.
pub(crate) fn references(
    buffer: &ExecutionBuffer,
    scale: &AdvantageScale,
    query: &Query,
) -> Vec<(PlanCtx, f64)> {
    buffer
        .references(query.id, scale)
        .into_iter()
        .map(|(p, refb)| {
            (
                PlanCtx {
                    icp: p.icp.clone(),
                    plan: p.plan.clone(),
                    encoded: p.encoded.clone(),
                },
                refb,
            )
        })
        .collect()
}

/// Real environment: rewards from actual execution latency with the paper's
/// dynamic timeout (1.5× the original plan's latency).
pub struct RealEnv<'a> {
    executor: &'a CachingExecutor,
    buffer: &'a mut ExecutionBuffer,
    scale: AdvantageScale,
    timeout_factor: f64,
}

impl<'a> RealEnv<'a> {
    /// Build over a shared executor and the global execution buffer.
    pub fn new(
        executor: &'a CachingExecutor,
        buffer: &'a mut ExecutionBuffer,
        scale: AdvantageScale,
        timeout_factor: f64,
    ) -> Self {
        Self {
            executor,
            buffer,
            scale,
            timeout_factor,
        }
    }

    /// Measure (or recall) the latency of `ctx`, recording it in the buffer.
    /// Timed-out plans are labelled with the budget as their latency.
    pub fn latency_of(&mut self, query: &Query, ctx: &PlanCtx) -> Result<f64> {
        if let Some(p) = self.buffer.get(query.id, &ctx.icp) {
            return Ok(p.latency);
        }
        let original = self
            .buffer
            .original(query.id)
            .ok_or_else(|| FossError::InvalidPlan("original not prepared".into()))?;
        let budget = original.latency * self.timeout_factor;
        let (latency, timed_out) = match self.executor.execute(query, &ctx.plan, Some(budget)) {
            Ok(out) => (out.latency, false),
            Err(FossError::Timeout { .. }) => (budget, true),
            Err(e) => return Err(e),
        };
        self.buffer
            .record(query.id, executed(ctx, latency, timed_out));
        Ok(latency)
    }
}

impl RewardOracle for RealEnv<'_> {
    fn prepare(&mut self, query: &Query, original: &PlanCtx) -> Result<()> {
        if self.buffer.original(query.id).is_some() {
            return Ok(());
        }
        let out = self.executor.execute(query, &original.plan, None)?;
        self.buffer
            .record_original(query.id, executed(original, out.latency, false));
        Ok(())
    }

    fn advantage(&mut self, query: &Query, left: &PlanCtx, right: &PlanCtx) -> usize {
        let ll = self.latency_of(query, left).unwrap_or(f64::INFINITY);
        let lr = self.latency_of(query, right).unwrap_or(f64::INFINITY);
        if !ll.is_finite() || !lr.is_finite() {
            return 0;
        }
        self.scale.score_latencies(ll, lr)
    }

    fn references(&mut self, query: &Query) -> Vec<(PlanCtx, f64)> {
        references(self.buffer, &self.scale, query)
    }
}

/// Simulated environment `Ê(Γp, θadv)`: rewards from the AAM, references
/// from previously executed (real) plans.
///
/// The AAM cannot change while the environment borrows it, and episodes
/// score the same plans over and over (each query's references, the
/// champion of every step), so the environment keeps the AAM state vector
/// `ϕ` of every plan it has scored, keyed by encoding content, and runs only
/// the difference head per verdict. Verdicts are bit for bit those of
/// [`AdvantageModel::predict`]. Reuse one environment across many episodes
/// to share the memo.
pub struct SimEnv<'a> {
    aam: &'a AdvantageModel,
    buffer: &'a ExecutionBuffer,
    scale: AdvantageScale,
    states: FxHashMap<Vec<u8>, Vec<f32>>,
}

impl<'a> SimEnv<'a> {
    /// Build over a trained AAM and the (read-only) execution buffer.
    pub fn new(
        aam: &'a AdvantageModel,
        buffer: &'a ExecutionBuffer,
        scale: AdvantageScale,
    ) -> Self {
        Self {
            aam,
            buffer,
            scale,
            states: FxHashMap::default(),
        }
    }

    /// The memo key of `plan`, its state vector computed if it is new.
    fn remember(&mut self, plan: &EncodedPlan) -> Vec<u8> {
        let key = plan.content_key();
        if !self.states.contains_key(&key) {
            self.states.insert(key.clone(), self.aam.state_vec(plan));
        }
        key
    }
}

impl RewardOracle for SimEnv<'_> {
    fn prepare(&mut self, _query: &Query, _original: &PlanCtx) -> Result<()> {
        Ok(())
    }

    fn advantage(&mut self, _query: &Query, left: &PlanCtx, right: &PlanCtx) -> usize {
        let (l, r) = (self.remember(&left.encoded), self.remember(&right.encoded));
        self.aam
            .predict_from_states(&self.states[&l], &self.states[&r])
    }

    fn references(&mut self, query: &Query) -> Vec<(PlanCtx, f64)> {
        references(self.buffer, &self.scale, query)
    }
}

/// Shared fixtures for unit tests across the crate (schema, data, agent).
#[doc(hidden)]
pub mod tests_support {
    use super::*;
    use crate::actions::ActionSpace;
    use crate::agent::PlannerAgent;
    use crate::config::FossConfig;
    use crate::encoding::PlanEncoder;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_executor::Database;
    use foss_optimizer::{CardinalityEstimator, CostModel, PhysicalPlan, TraditionalOptimizer};
    use foss_query::QueryBuilder;
    use foss_storage::{Column, Table};
    use std::sync::Arc;

    /// A tiny but non-trivial world: 3-table chain with size skew so join
    /// order and method genuinely matter.
    pub struct TestWorld {
        pub db: Arc<Database>,
        pub opt: TraditionalOptimizer,
        pub encoder: PlanEncoder,
        pub agent: PlannerAgent,
        pub space: ActionSpace,
        pub query: Query,
        pub original: PhysicalPlan,
    }

    impl TestWorld {
        pub fn new(seed: u64) -> Self {
            let mut schema = Schema::new();
            let sizes = [("a", 80usize), ("b", 4000), ("c", 400)];
            for (name, _) in sizes {
                schema
                    .add_table(TableDef {
                        name: name.into(),
                        columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("fk")],
                    })
                    .unwrap();
            }
            let schema = Arc::new(schema);
            let mut tables = Vec::new();
            for (name, rows) in sizes {
                let ids: Vec<i64> = (0..rows as i64).collect();
                // Skewed fk: many rows point at low ids.
                let fks: Vec<i64> = (0..rows as i64).map(|i| (i * i) % 80).collect();
                tables.push(
                    Table::new(
                        name,
                        vec![
                            ("id".into(), Column::new(ids)),
                            ("fk".into(), Column::new(fks)),
                        ],
                    )
                    .unwrap(),
                );
            }
            let db = Arc::new(Database::new(schema.clone(), tables, 16).unwrap());
            let opt = TraditionalOptimizer::new(
                schema.clone(),
                CardinalityEstimator::new(db.stats_vec()),
                CostModel::default(),
            );
            let mut qb = QueryBuilder::new(foss_common::QueryId::new(0), 1);
            let a = qb.relation(schema.table_id("a").unwrap(), "a");
            let b = qb.relation(schema.table_id("b").unwrap(), "b");
            let c = qb.relation(schema.table_id("c").unwrap(), "c");
            qb.join(a, 0, b, 1).join(a, 0, c, 1);
            let query = qb.build(&schema).unwrap();
            let original = opt.optimize(&query).unwrap();
            let encoder = PlanEncoder::new(3, db.stats().iter().map(|s| s.row_count).collect());
            let space = ActionSpace::new(3);
            let agent = PlannerAgent::new(4, space.len(), &FossConfig::tiny(), seed);
            Self {
                db,
                opt,
                encoder,
                agent,
                space,
                query,
                original,
            }
        }
    }

    impl TestWorld {
        /// A valid query over table `a` alone: its ICP admits no swap and no
        /// override, so the doctor has no legal action on it.
        pub fn single_relation_query(&self, id: usize) -> Query {
            let schema = self.db.schema();
            let mut qb = QueryBuilder::new(foss_common::QueryId::new(id), 2);
            qb.relation(schema.table_id("a").unwrap(), "a");
            qb.build(schema).unwrap()
        }
    }

    /// A reward oracle backed directly by true latencies (no timeout, no
    /// buffer) — useful to test the episode loop in isolation.
    pub struct LatencyOracle<'a> {
        exec: CachingExecutor,
        scale: AdvantageScale,
        _marker: std::marker::PhantomData<&'a ()>,
    }

    impl<'a> LatencyOracle<'a> {
        pub fn new(db: &Arc<Database>, opt: &TraditionalOptimizer, _encoder: &PlanEncoder) -> Self {
            Self {
                exec: CachingExecutor::new(db.clone(), *opt.cost_model()),
                scale: AdvantageScale::paper_default(),
                _marker: std::marker::PhantomData,
            }
        }

        pub fn true_latency(&self, query: &Query, plan: &PhysicalPlan) -> f64 {
            self.exec.execute(query, plan, None).unwrap().latency
        }
    }

    impl RewardOracle for LatencyOracle<'_> {
        fn prepare(&mut self, _query: &Query, _original: &PlanCtx) -> Result<()> {
            Ok(())
        }

        fn advantage(&mut self, query: &Query, left: &PlanCtx, right: &PlanCtx) -> usize {
            let ll = self.true_latency(query, &left.plan);
            let lr = self.true_latency(query, &right.plan);
            self.scale.score_latencies(ll, lr)
        }

        fn references(&mut self, _query: &Query) -> Vec<(PlanCtx, f64)> {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::TestWorld;
    use super::*;
    use crate::encoding::PlanEncoder;
    use foss_optimizer::Icp;

    fn ctx_for(world: &TestWorld, icp: Icp) -> PlanCtx {
        let plan = world.opt.optimize_with_hint(&world.query, &icp).unwrap();
        let encoder = PlanEncoder::new(3, world.db.stats().iter().map(|s| s.row_count).collect());
        let encoded = encoder.encode(&world.query, &plan, 0.5);
        PlanCtx { icp, plan, encoded }
    }

    #[test]
    fn real_env_records_executions() {
        let world = TestWorld::new(1);
        let exec = CachingExecutor::new(world.db.clone(), *world.opt.cost_model());
        let mut buf = ExecutionBuffer::new();
        let mut env = RealEnv::new(&exec, &mut buf, AdvantageScale::paper_default(), 1.5);
        let orig_icp = world.original.extract_icp().unwrap();
        let orig_ctx = ctx_for(&world, orig_icp.clone());
        env.prepare(&world.query, &orig_ctx).unwrap();

        let mut other = orig_icp.clone();
        other.swap(1, 2).unwrap();
        let other_ctx = ctx_for(&world, other);
        let _adv = env.advantage(&world.query, &orig_ctx, &other_ctx);
        assert!(buf.original(world.query.id).is_some());
        assert_eq!(buf.plans(world.query.id).len(), 1);
    }

    #[test]
    fn real_env_timeout_labels_budget() {
        let world = TestWorld::new(2);
        let exec = CachingExecutor::new(world.db.clone(), *world.opt.cost_model());
        let mut buf = ExecutionBuffer::new();
        // Timeout factor so small every alternative times out.
        let mut env = RealEnv::new(&exec, &mut buf, AdvantageScale::paper_default(), 1e-6);
        let orig_icp = world.original.extract_icp().unwrap();
        let orig_ctx = ctx_for(&world, orig_icp.clone());
        env.prepare(&world.query, &orig_ctx).unwrap();
        let mut other = orig_icp.clone();
        other
            .override_method(1, 1 + (other.methods[0].index() + 1) % 3)
            .unwrap();
        let other_ctx = ctx_for(&world, other.clone());
        let lat = env.latency_of(&world.query, &other_ctx).unwrap();
        let orig_lat = buf.original(world.query.id).unwrap().latency;
        assert!((lat - orig_lat * 1e-6).abs() < 1e-9);
        assert!(buf.get(world.query.id, &other).unwrap().timed_out);
    }

    /// The memo must not be observable: every verdict is `predict`'s, for
    /// plans scored for the first time and again, including plans that
    /// share operator codes but differ in their other features.
    #[test]
    fn sim_env_memo_gives_the_verdicts_of_predict() {
        use crate::aam::{AamSample, AdvantageModel};
        use crate::config::FossConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let world = TestWorld::new(4);
        // Tags t and t + 6 share operator codes, nothing else.
        let encoded = |tag: usize| EncodedPlan {
            ops: vec![tag % 6, 0, 1],
            tables: vec![0, 1, 2],
            sels: vec![10, tag % 10, 0],
            rows: vec![tag % 20, 3, 4],
            heights: vec![1, 0, 0],
            structures: vec![3, 0, 1],
            reach: vec![vec![true; 3]; 3],
            step: tag as f32 / 12.0,
        };
        let mut rng = StdRng::seed_from_u64(8);
        let mut aam = AdvantageModel::new(4, &FossConfig::tiny(), &mut rng);
        let samples: Vec<AamSample> = (0..48)
            .map(|i| {
                let right = (i * 5 + 1) % 12;
                (
                    encoded(i % 12),
                    encoded(right),
                    if right < 6 { 0 } else { 2 },
                )
            })
            .collect();
        for _ in 0..20 {
            aam.train_epoch(&samples, &mut rng);
        }
        let icp = world.original.extract_icp().unwrap();
        let ctx = |tag| PlanCtx {
            icp: icp.clone(),
            plan: world.original.clone(),
            encoded: encoded(tag),
        };
        let buf = ExecutionBuffer::new();
        let mut env = SimEnv::new(&aam, &buf, AdvantageScale::paper_default());
        let mut seen = [0usize; 3];
        for _ in 0..2 {
            for l in 0..12 {
                for r in 0..12 {
                    let (l, r) = (ctx(l), ctx(r));
                    let verdict = env.advantage(&world.query, &l, &r);
                    assert_eq!(verdict, aam.predict(&l.encoded, &r.encoded));
                    seen[verdict] += 1;
                }
            }
        }
        assert!(seen.iter().filter(|&&n| n > 0).count() >= 2, "{seen:?}");
    }

    #[test]
    fn sim_env_uses_aam_verdicts() {
        use crate::aam::AdvantageModel;
        use crate::config::FossConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let world = TestWorld::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        let aam = AdvantageModel::new(4, &FossConfig::tiny(), &mut rng);
        let buf = ExecutionBuffer::new();
        let mut env = SimEnv::new(&aam, &buf, AdvantageScale::paper_default());
        let orig_icp = world.original.extract_icp().unwrap();
        let a = ctx_for(&world, orig_icp.clone());
        let mut icp_b = orig_icp;
        icp_b.swap(1, 2).unwrap();
        let b = ctx_for(&world, icp_b);
        let s = env.advantage(&world.query, &a, &b);
        assert!(s < 3);
        assert_eq!(s, aam.predict(&a.encoded, &b.encoded));
        // No references without buffer contents.
        assert!(env.references(&world.query).is_empty());
    }
}
