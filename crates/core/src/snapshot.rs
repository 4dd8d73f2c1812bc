//! Read-only planning snapshots — the serving half of the core split.
//!
//! [`Foss`](crate::trainer::Foss) owns the mutable training state (PPO
//! agents, execution buffer, AAM optimiser moments). A [`PlannerSnapshot`]
//! is an immutable copy of what inference reads — frozen agent policies,
//! the AAM weights, the plan encoder/action space, the expert optimizer
//! handle and the expert plans of the training queries — behind `Arc`s, so
//! cloning a snapshot is a handful of reference-count bumps and
//! [`PlannerSnapshot::optimize`] takes `&self`: any number of threads can
//! plan concurrently over one snapshot while training continues elsewhere.
//! The execution buffer and the advantage scale are training machinery for
//! the simulated environment and stay with the trainer.
//!
//! [`SnapshotCell`] is the publication point: the trainer calls
//! [`SnapshotCell::publish`] after an update round (hot model swap), servers
//! call [`SnapshotCell::load`] per query and keep planning on whatever
//! generation they loaded — no lock is held while planning.

use std::path::Path;
use std::sync::Arc;

use foss_common::sync::atomic::{AtomicU64, Ordering};
use foss_common::sync::RwLock;
use foss_common::{ByteReader, ByteWriter, Codec, FossError, FxHashMap, QueryId, Result};
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;

use crate::aam::AdvantageModel;
use crate::actions::ActionSpace;
use crate::agent::{FrozenPolicy, PlanPolicy};
use crate::config::FossConfig;
use crate::encoding::{EncodedPlan, PlanEncoder};
use crate::envs::RewardOracle;
use crate::episode::{run_episode_greedy, PlanCtx};
use crate::selector::select_best;
use crate::trainer::Inference;

/// Magic bytes opening every serialized snapshot (`FSNP` little-endian).
pub const SNAPSHOT_MAGIC: u32 = 0x504e_5346;

/// Version of the snapshot wire/file format produced by
/// [`PlannerSnapshot::to_bytes`]. Bump on any layout change; decode rejects
/// versions it does not understand.
pub const SNAPSHOT_VERSION: u32 = 2;

/// An immutable, cheaply-cloneable view of a trained FOSS planner.
///
/// Produced by [`Foss::snapshot`](crate::trainer::Foss::snapshot); see the
/// module docs for the threading contract.
#[derive(Clone)]
pub struct PlannerSnapshot {
    cfg: FossConfig,
    optimizer: Arc<TraditionalOptimizer>,
    encoder: Arc<PlanEncoder>,
    space: Arc<ActionSpace>,
    policies: Arc<Vec<FrozenPolicy>>,
    aam: Arc<AdvantageModel>,
    originals: Arc<FxHashMap<QueryId, PhysicalPlan>>,
}

impl PlannerSnapshot {
    pub(crate) fn new(
        cfg: FossConfig,
        optimizer: Arc<TraditionalOptimizer>,
        encoder: Arc<PlanEncoder>,
        space: Arc<ActionSpace>,
        policies: Arc<Vec<FrozenPolicy>>,
        aam: Arc<AdvantageModel>,
        originals: Arc<FxHashMap<QueryId, PhysicalPlan>>,
    ) -> Self {
        Self {
            cfg,
            optimizer,
            encoder,
            space,
            policies,
            aam,
            originals,
        }
    }

    /// The configuration the planner was trained with.
    pub fn config(&self) -> &FossConfig {
        &self.cfg
    }

    /// The frozen advantage model.
    pub fn aam(&self) -> &AdvantageModel {
        &self.aam
    }

    /// The expert optimizer this snapshot repairs plans from.
    pub fn optimizer(&self) -> &Arc<TraditionalOptimizer> {
        &self.optimizer
    }

    /// The expert (DP) plan for `query` — the fallback every serving-path
    /// decision can reach without touching learned state. Answered from the
    /// frozen original-plan cache when the query was seen in training.
    pub fn expert_plan(&self, query: &Query) -> Result<PhysicalPlan> {
        if let Some(p) = self.originals.get(&query.id) {
            return Ok(p.clone());
        }
        self.optimizer.optimize(query)
    }

    /// Doctored plan for `query` (read-only; see module docs).
    pub fn optimize(&self, query: &Query) -> Result<PhysicalPlan> {
        Ok(self.optimize_detailed(query)?.plan)
    }

    /// Doctored plan with provenance (selected step, candidate count, AAM
    /// confidence).
    pub fn optimize_detailed(&self, query: &Query) -> Result<Inference> {
        let original = self.expert_plan(query)?;
        self.optimize_detailed_from(query, &original)
    }

    /// Like [`PlannerSnapshot::optimize_detailed`] with the expert plan
    /// supplied by the caller — the serving path already needs the expert
    /// plan for its fallback, so this avoids planning it twice per query.
    /// `original` must be this snapshot's [`PlannerSnapshot::expert_plan`]
    /// for `query`.
    pub fn optimize_detailed_from(
        &self,
        query: &Query,
        original: &PhysicalPlan,
    ) -> Result<Inference> {
        let policies: Vec<&dyn PlanPolicy> =
            self.policies.iter().map(|p| p as &dyn PlanPolicy).collect();
        infer(
            &policies,
            &self.aam,
            &self.optimizer,
            &self.encoder,
            &self.space,
            &self.cfg,
            query,
            original,
        )
    }

    /// Serialize this snapshot to the versioned binary format.
    ///
    /// The payload carries everything inference needs *except* the expert
    /// [`TraditionalOptimizer`], which is a pure function of the workload
    /// (name, seed, scale) and is rebuilt by the loading process —
    /// see [`PlannerSnapshot::from_bytes`]. Maps are key-sorted before
    /// writing, so the same logical snapshot always yields the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        self.cfg.encode(&mut w);
        // Fully-qualified: PlanEncoder/ActionSpace have inherent `encode`
        // methods (plan encoding / action decoding) that shadow the trait.
        Codec::encode(self.encoder.as_ref(), &mut w);
        Codec::encode(self.space.as_ref(), &mut w);
        self.policies.as_ref().encode(&mut w);
        self.aam.encode(&mut w);
        let mut keys: Vec<QueryId> = self.originals.keys().copied().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for qid in keys {
            qid.encode(&mut w);
            self.originals[&qid].encode(&mut w);
        }
        w.into_bytes()
    }

    /// Reconstruct a snapshot from [`PlannerSnapshot::to_bytes`] output.
    ///
    /// `optimizer` must be the expert optimizer of the workload the snapshot
    /// was trained on (rebuilt deterministically from the same workload name,
    /// seed and scale). Plans produced by the result are bit-identical to
    /// the snapshot that was serialized.
    ///
    /// A snapshot that does not fit `optimizer`'s catalog — another table
    /// count, other row counts (the same workload at another scale or seed) —
    /// or whose networks do not fit its own encoder, action space and config
    /// is refused with [`FossError::Serde`] here rather than panicking at its
    /// first inference.
    pub fn from_bytes(bytes: &[u8], optimizer: Arc<TraditionalOptimizer>) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(FossError::Serde(format!(
                "not a planner snapshot (magic {magic:#010x})"
            )));
        }
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(FossError::Serde(format!(
                "unsupported snapshot version {version} (supported: {SNAPSHOT_VERSION})"
            )));
        }
        let cfg = FossConfig::decode(&mut r)?;
        let encoder = <PlanEncoder as Codec>::decode(&mut r)?;
        let space = <ActionSpace as Codec>::decode(&mut r)?;
        let policies: Vec<FrozenPolicy> = Vec::decode(&mut r)?;
        let aam = AdvantageModel::decode(&mut r)?;
        let mut originals = FxHashMap::default();
        for _ in 0..r.get_len()? {
            let qid = QueryId::decode(&mut r)?;
            originals.insert(qid, PhysicalPlan::decode(&mut r)?);
        }
        r.finish()?;
        let snapshot = Self {
            cfg,
            optimizer,
            encoder: Arc::new(encoder),
            space: Arc::new(space),
            policies: Arc::new(policies),
            aam: Arc::new(aam),
            originals: Arc::new(originals),
        };
        snapshot.check_fit()?;
        Ok(snapshot)
    }

    /// Every dimension inference relies on, checked against the serving
    /// catalog and against the snapshot's own encoder, action space and
    /// config.
    fn check_fit(&self) -> Result<()> {
        let tables = self.optimizer.schema().table_count();
        fit("the table count", self.encoder.table_count, tables)?;
        for (t, &rows) in self.encoder.table_rows().iter().enumerate() {
            let catalog = self.optimizer.estimator().table_stats(t).row_count;
            fit(&format!("table {t}'s row count"), rows, catalog)?;
        }
        // The trainer builds at least one agent whatever `num_agents` says.
        fit(
            "the policy count",
            self.policies.len(),
            self.cfg.num_agents.max(1),
        )?;
        let vocab = self.encoder.table_vocab();
        for policy in self.policies.iter() {
            fit("a policy's table vocabulary", policy.table_vocab(), vocab)?;
            fit(
                "a policy's action count",
                policy.action_count(),
                self.space.len(),
            )?;
        }
        fit("the AAM's table vocabulary", self.aam.table_vocab(), vocab)?;
        fit(
            "the AAM's class count",
            self.aam.num_classes(),
            self.cfg.num_classes(),
        )
    }

    /// Write the snapshot to `path` (atomic enough for single-writer use:
    /// the file appears fully written or not at all via a temp + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| FossError::Serde(format!("cannot write {}: {e}", path.display())))
    }

    /// Read a snapshot saved by [`PlannerSnapshot::save`]; `optimizer` as in
    /// [`PlannerSnapshot::from_bytes`].
    pub fn load(path: impl AsRef<Path>, optimizer: Arc<TraditionalOptimizer>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| FossError::Serde(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes, optimizer)
    }
}

/// `Ok` when the snapshot's `what` equals the serving side's, else the
/// [`FossError::Serde`] that refuses the snapshot.
fn fit<T: PartialEq + std::fmt::Display>(what: &str, snapshot: T, serving: T) -> Result<()> {
    if snapshot == serving {
        return Ok(());
    }
    Err(FossError::Serde(format!(
        "snapshot does not fit the serving catalog: {what} is {snapshot} in the snapshot, \
         {serving} here"
    )))
}

/// The reward oracle of inference: none. `infer` reads an episode's plans,
/// never its rewards, and the greedy trajectory depends on the policy alone,
/// so the episode loop runs without a single AAM call.
struct NoReward;

impl RewardOracle for NoReward {
    fn prepare(&mut self, _: &Query, _: &PlanCtx) -> Result<()> {
        Ok(())
    }

    fn advantage(&mut self, _: &Query, _: &PlanCtx, _: &PlanCtx) -> usize {
        0
    }

    fn references(&mut self, _: &Query) -> Vec<(PlanCtx, f64)> {
        Vec::new()
    }
}

/// The shared greedy-inference pipeline: per-policy greedy episodes, a
/// per-policy AAM tournament, then a final tournament among champions.
///
/// Both [`Foss::optimize_detailed`](crate::trainer::Foss::optimize_detailed)
/// (live agents) and [`PlannerSnapshot::optimize_detailed`] (frozen
/// policies) run exactly this function, which is what makes snapshot plans
/// bit-identical to trainer plans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn infer(
    policies: &[&dyn PlanPolicy],
    aam: &AdvantageModel,
    optimizer: &TraditionalOptimizer,
    encoder: &PlanEncoder,
    space: &ActionSpace,
    cfg: &FossConfig,
    query: &Query,
    original: &PhysicalPlan,
) -> Result<Inference> {
    // Per-policy greedy episode → per-policy champion.
    let mut champions = Vec::with_capacity(policies.len());
    let mut expert_encoded = None;
    for policy in policies {
        let res = run_episode_greedy(
            *policy,
            optimizer,
            encoder,
            space,
            query,
            original,
            &mut NoReward,
            cfg,
        )?;
        let mut cands: Vec<&EncodedPlan> = vec![&res.original.encoded];
        for v in &res.visited {
            cands.push(&v.encoded);
        }
        let idx = select_best(aam, &cands);
        let ctx = if idx == 0 {
            res.original.clone()
        } else {
            res.visited[idx - 1].clone()
        };
        champions.push((ctx, idx));
        expert_encoded = Some(res.original.encoded);
    }
    // Multi-agent: final tournament among champions.
    let encs: Vec<&EncodedPlan> = champions.iter().map(|(c, _)| &c.encoded).collect();
    let winner = select_best(aam, &encs);
    let (ctx, step) = champions.swap_remove(winner);
    let candidates = cfg.num_agents * (cfg.max_steps + 1);
    // Confidence: the AAM's advantage score of the selected plan over the
    // expert plan (0 when the expert plan was kept — there is nothing to be
    // confident about).
    let aam_confidence = match expert_encoded {
        Some(expert) if step != 0 => aam.predict(&expert, &ctx.encoded),
        _ => 0,
    };
    Ok(Inference {
        plan: ctx.plan,
        selected_step: step,
        candidates,
        aam_confidence,
    })
}

/// A hot-swappable snapshot slot: the trainer publishes, servers load.
///
/// `load` clones an `Arc` under a read lock (nanoseconds); planning happens
/// entirely outside the lock, so a publish never blocks behind an in-flight
/// query and a query never observes a half-published model.
///
/// Generic over the payload (defaulting to [`PlannerSnapshot`], the serving
/// use) so the publish/load protocol itself can be model-checked with small
/// payloads — the checked code is exactly what serves production traffic.
pub struct SnapshotCell<T = PlannerSnapshot> {
    slot: RwLock<Arc<T>>,
    generation: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Start serving from `snapshot` (generation 0).
    pub fn new(snapshot: T) -> Self {
        Self {
            slot: RwLock::new(Arc::new(snapshot)),
            generation: AtomicU64::new(0),
        }
    }

    /// The snapshot to plan with right now.
    pub fn load(&self) -> Arc<T> {
        self.slot.read().clone()
    }

    /// Atomically replace the served snapshot (hot model swap).
    ///
    /// The slot is swapped *before* the generation bump: a reader that
    /// observes generation `g` is guaranteed any subsequent `load` returns
    /// the payload of publish `g` or newer. (The converse — a fresh payload
    /// with a stale counter — only makes staleness checks conservative.)
    pub fn publish(&self, snapshot: T) {
        *self.slot.write() = Arc::new(snapshot);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// How many times [`SnapshotCell::publish`] has run.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advantage::AdvantageScale;
    use crate::envs::tests_support::TestWorld;
    use crate::trainer::Foss;
    use foss_executor::CachingExecutor;

    /// An untrained FOSS over `world`'s expert with the given action-space
    /// width, per-table row counts and config.
    fn foss_with(world: &TestWorld, max_n: usize, table_rows: Vec<u64>, cfg: FossConfig) -> Foss {
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        Foss::new(
            Arc::new(world.opt.clone()),
            executor,
            max_n,
            table_rows,
            cfg,
        )
    }

    fn world_rows(world: &TestWorld) -> Vec<u64> {
        world.db.stats().iter().map(|s| s.row_count).collect()
    }

    fn trained_foss(world: &TestWorld, seed: u64) -> Foss {
        let mut foss = foss_with(
            world,
            3,
            world_rows(world),
            FossConfig {
                episodes_per_update: 6,
                seed,
                ..FossConfig::tiny()
            },
        );
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        foss
    }

    #[test]
    fn snapshot_plans_match_trainer_plans() {
        let world = TestWorld::new(21);
        let foss = trained_foss(&world, 21);
        let snap = foss.snapshot();
        let live = foss.optimize_detailed(&world.query).unwrap();
        let frozen = snap.optimize_detailed(&world.query).unwrap();
        assert_eq!(live.plan.fingerprint(), frozen.plan.fingerprint());
        assert_eq!(live.selected_step, frozen.selected_step);
        assert_eq!(live.candidates, frozen.candidates);
        assert_eq!(live.aam_confidence, frozen.aam_confidence);
    }

    #[test]
    fn inference_episodes_visit_the_same_plans_without_a_reward_oracle() {
        // What `infer` reads from an episode (the expert plan and the visited
        // plans, with their encodings) must not depend on the oracle it
        // dropped: same trajectory under the simulated environment training
        // uses and under `NoReward`.
        let world = TestWorld::new(24);
        let foss = trained_foss(&world, 24);
        let snap = foss.snapshot();
        let original = snap.expert_plan(&world.query).unwrap();
        for policy in snap.policies.iter() {
            let run = |oracle: &mut dyn RewardOracle| {
                run_episode_greedy(
                    policy,
                    &snap.optimizer,
                    &snap.encoder,
                    &snap.space,
                    &world.query,
                    &original,
                    oracle,
                    &snap.cfg,
                )
                .unwrap()
            };
            let scale = AdvantageScale::new(foss.config().adv_points.clone());
            let mut sim = crate::envs::SimEnv::new(foss.aam(), foss.buffer(), scale);
            let with_rewards = run(&mut sim);
            let without = run(&mut NoReward);
            assert_eq!(with_rewards.original.encoded, without.original.encoded);
            assert_eq!(with_rewards.visited.len(), without.visited.len());
            for (a, b) in with_rewards.visited.iter().zip(&without.visited) {
                assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());
                assert_eq!(a.encoded, b.encoded);
            }
        }
    }

    #[test]
    fn snapshot_clone_is_shallow_and_identical() {
        let world = TestWorld::new(22);
        let foss = trained_foss(&world, 22);
        let a = foss.snapshot();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.aam, &b.aam), "clone must share weights");
        assert_eq!(
            a.optimize(&world.query).unwrap().fingerprint(),
            b.optimize(&world.query).unwrap().fingerprint()
        );
    }

    #[test]
    fn many_threads_plan_over_one_snapshot() {
        let world = TestWorld::new(23);
        let foss = trained_foss(&world, 23);
        let snap = foss.snapshot();
        let serial = snap.optimize(&world.query).unwrap().fingerprint();
        let fingerprints: Vec<u64> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let snap = snap.clone();
                    let query = world.query.clone();
                    scope.spawn(move || snap.optimize(&query).unwrap().fingerprint())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for fp in fingerprints {
            assert_eq!(fp, serial, "concurrent planning must be deterministic");
        }
    }

    #[test]
    fn cell_publishes_new_generations() {
        let world = TestWorld::new(24);
        let mut foss = trained_foss(&world, 24);
        let cell = SnapshotCell::new(foss.snapshot());
        let first = cell.load();
        assert_eq!(cell.generation(), 0);
        foss.train_iteration(std::slice::from_ref(&world.query), 2)
            .unwrap();
        cell.publish(foss.snapshot());
        let second = cell.load();
        assert_eq!(cell.generation(), 1);
        assert!(!Arc::ptr_eq(&first, &second), "publish must swap the slot");
        // The retired generation keeps working (readers finish on it).
        first.optimize(&world.query).unwrap();
    }

    #[test]
    fn serialized_snapshot_round_trips_bit_identically() {
        let world = TestWorld::new(26);
        let foss = trained_foss(&world, 26);
        let snap = foss.snapshot();
        let bytes = snap.to_bytes();
        let back = PlannerSnapshot::from_bytes(&bytes, snap.optimizer().clone()).unwrap();
        let live = snap.optimize_detailed(&world.query).unwrap();
        let loaded = back.optimize_detailed(&world.query).unwrap();
        assert_eq!(live.plan.fingerprint(), loaded.plan.fingerprint());
        assert_eq!(live.selected_step, loaded.selected_step);
        assert_eq!(live.candidates, loaded.candidates);
        assert_eq!(live.aam_confidence, loaded.aam_confidence);
        // Canonical encoding: re-serializing the decoded snapshot is stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_decode_rejects_bad_magic_and_version() {
        let world = TestWorld::new(27);
        let foss = trained_foss(&world, 27);
        let snap = foss.snapshot();
        let opt = snap.optimizer().clone();
        let mut bytes = snap.to_bytes();
        // Corrupt the version field.
        bytes[4] = 0xEE;
        assert!(PlannerSnapshot::from_bytes(&bytes, opt.clone()).is_err());
        // Corrupt the magic.
        bytes[4] = SNAPSHOT_VERSION as u8;
        bytes[0] ^= 0xFF;
        assert!(PlannerSnapshot::from_bytes(&bytes, opt.clone()).is_err());
        // Truncation fails loudly too.
        let good = snap.to_bytes();
        assert!(PlannerSnapshot::from_bytes(&good[..good.len() - 3], opt).is_err());
    }

    #[test]
    fn a_version_1_snapshot_is_refused_by_name() {
        let world = TestWorld::new(27);
        let snap = trained_foss(&world, 27).snapshot();
        let mut bytes = snap.to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let Err(FossError::Serde(msg)) =
            PlannerSnapshot::from_bytes(&bytes, snap.optimizer().clone())
        else {
            panic!("a v1 snapshot must be refused");
        };
        assert!(msg.contains("version 1"), "{msg}");
    }

    /// `snapshot`'s bytes decoded against `world`'s expert: the error text.
    fn refusal(world: &TestWorld, snapshot: &PlannerSnapshot) -> String {
        let opt = Arc::new(world.opt.clone());
        match PlannerSnapshot::from_bytes(&snapshot.to_bytes(), opt) {
            Err(FossError::Serde(msg)) => msg,
            other => panic!("expected a Serde refusal, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_snapshot_that_does_not_fit_is_refused() {
        let world = TestWorld::new(29);
        let build = |max_n, rows| foss_with(&world, max_n, rows, FossConfig::tiny()).snapshot();
        let mut four_tables = world_rows(&world);
        four_tables.push(1_000);
        let four_tables = build(3, four_tables);
        let rescaled = build(3, world_rows(&world).iter().map(|r| r * 2).collect());
        let wider = build(4, world_rows(&world));
        let base = build(3, world_rows(&world));
        let spliced = |f: &dyn Fn(&mut PlannerSnapshot)| {
            let mut snap = base.clone();
            f(&mut snap);
            snap
        };
        for (snap, why) in [
            // Built for another catalog: a fourth table, or another scale.
            (four_tables.clone(), "the table count"),
            (rescaled, "table 0's row count"),
            // Parts that disagree with each other.
            (
                spliced(&|s| s.space = wider.space.clone()),
                "a policy's action count",
            ),
            (
                spliced(&|s| s.policies = four_tables.policies.clone()),
                "a policy's table vocabulary",
            ),
            (
                spliced(&|s| s.aam = four_tables.aam.clone()),
                "the AAM's table vocabulary",
            ),
            (spliced(&|s| s.cfg.num_agents = 2), "the policy count"),
            (
                spliced(&|s| s.cfg.adv_points = vec![0.05, 0.3, 0.6]),
                "the AAM's class count",
            ),
        ] {
            let msg = refusal(&world, &snap);
            assert!(msg.contains(why), "{why}: {msg}");
        }
    }

    #[test]
    fn snapshot_save_load_file_round_trip() {
        let world = TestWorld::new(28);
        let foss = trained_foss(&world, 28);
        let snap = foss.snapshot();
        let dir = std::env::temp_dir().join(format!("foss-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("planner.fsnp");
        snap.save(&path).unwrap();
        let loaded = PlannerSnapshot::load(&path, snap.optimizer().clone()).unwrap();
        assert_eq!(
            snap.optimize(&world.query).unwrap().fingerprint(),
            loaded.optimize(&world.query).unwrap().fingerprint()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expert_plan_matches_optimizer_for_unseen_queries() {
        let world = TestWorld::new(25);
        let foss = trained_foss(&world, 25);
        let snap = foss.snapshot();
        let direct = world.opt.optimize(&world.query).unwrap();
        assert_eq!(
            snap.expert_plan(&world.query).unwrap().fingerprint(),
            direct.fingerprint()
        );
    }
}
