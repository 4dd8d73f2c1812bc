//! Latency memoisation.
//!
//! The training loop executes the same (query, plan) pair many times across
//! episodes and AAM retraining rounds; since execution is deterministic, the
//! outcome can be memoised by plan fingerprint. This mirrors the paper's
//! execution buffer semantics: once a plan's latency is known it never needs
//! to be re-executed.
//!
//! The cache is unbounded: one map from `(query fingerprint, plan
//! fingerprint)` to the outcome, under one lock. A query is its content
//! ([`Query::fingerprint`]), whatever id it arrives under. Misses run the
//! default (chunked) engine, or the fused tier when the caller hands one
//! in; both charge the same work units, so what is cached never depends on
//! which ran.

use std::sync::Arc;

use foss_common::sync::atomic::{AtomicU64, Ordering};
use foss_common::sync::{Condvar, Mutex, MutexGuard};

use foss_common::{FaultPlan, FaultSite, FossError, FxHashMap, FxHashSet, Result};
use foss_optimizer::{CostModel, PhysicalPlan};
use foss_query::Query;

use crate::database::Database;
use crate::exec::{ExecOutcome, Executor};

/// What a cached execution looked like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachedResult {
    /// Finished within budget.
    Done(ExecOutcome),
    /// Hit the work budget.
    TimedOut {
        /// Budget that was exceeded.
        budget: f64,
        /// Work units the failed run actually performed before aborting
        /// (≈ budget + one chunk's charge — the metered convention), taken
        /// verbatim from the run's [`FossError::Timeout`] so replaying the
        /// cached error under the same budget is bit-identical.
        spent: u64,
    },
}

/// One consistent snapshot of a [`CachingExecutor`]'s counters.
///
/// `executions` and `hits` are lifetime totals;
/// [`CachingExecutor::clear`] resets only `entries`. The serving metrics
/// registry consumes this struct wholesale, so every counter the cache
/// maintains travels together instead of through ad-hoc accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Real executions performed (cache misses).
    pub executions: u64,
    /// Lookups answered from the cache (including cached timeouts).
    pub hits: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.executions;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since `baseline` (a stats snapshot taken earlier on
    /// the same executor). `entries` is a gauge, not a counter, and stays
    /// absolute. Lets a consumer report only its own traffic on a shared
    /// executor — e.g. the serving metrics exclude training-time activity.
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            executions: self.executions.saturating_sub(baseline.executions),
            hits: self.hits.saturating_sub(baseline.hits),
            entries: self.entries,
        }
    }
}

type CacheKey = (u64, u64);

/// The one place a cache key is computed.
fn cache_key(query: &Query, plan: &PhysicalPlan) -> CacheKey {
    (query.fingerprint(), plan.fingerprint())
}

/// An [`Executor`] front-end with a fingerprint-keyed latency cache and an
/// execution counter (used to report "plans executed" statistics).
///
/// The cache is unbounded — the training loop revisits the same (query,
/// plan) pairs across episodes and wants every latency memoised.
pub struct CachingExecutor {
    db: Arc<Database>,
    cost: CostModel,
    cache: Mutex<FxHashMap<CacheKey, CachedResult>>,
    /// Keys currently being executed by some thread (single-flight): a
    /// concurrent miss on an in-flight key waits on `inflight_cv` for the
    /// executing thread to fill the cache instead of re-executing.
    inflight: Mutex<FxHashSet<CacheKey>>,
    inflight_cv: Condvar,
    executions: AtomicU64,
    hits: AtomicU64,
    /// Deterministic fault hooks ([`FaultSite::CacheError`] /
    /// [`FaultSite::ExecSlow`]); `None` in production, where the hook is a
    /// single branch on the option.
    faults: Option<Arc<FaultPlan>>,
}

/// RAII claim on an in-flight key: released (with waiters woken) on drop, so
/// an unwinding execution can't strand the key and deadlock later callers.
struct InflightClaim<'a> {
    cx: &'a CachingExecutor,
    key: CacheKey,
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        self.cx.inflight.lock().remove(&self.key);
        self.cx.inflight_cv.notify_all();
    }
}

impl CachingExecutor {
    /// Wrap a database + cost model with an unbounded cache whose misses
    /// run the default (chunked) engine.
    pub fn new(db: Arc<Database>, cost: CostModel) -> Self {
        Self {
            db,
            cost,
            cache: Mutex::new(FxHashMap::default()),
            inflight: Mutex::new(FxHashSet::default()),
            inflight_cv: Condvar::new(),
            executions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            faults: None,
        }
    }

    /// Attach a deterministic fault plan (chainable). Each `execute` call
    /// then consults [`FaultSite::CacheError`] (fail the lookup with a
    /// transient error before any work) and [`FaultSite::ExecSlow`]
    /// (wall-clock sleep of the rule's `param` µs — metered work-unit
    /// latencies are deliberately untouched so cached outcomes stay
    /// bit-identical). Chaos harnesses use this; production never attaches
    /// a plan and pays one `Option` branch.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Answer `key` from the cache, or `None` on a miss (including a cached
    /// timeout that a larger budget may now beat — that must re-execute).
    fn lookup(&self, key: CacheKey, budget: Option<f64>) -> Option<Result<ExecOutcome>> {
        let cached = self.cache.lock().get(&key).copied()?;
        match cached {
            CachedResult::Done(out) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(b) = budget {
                    if out.latency > b {
                        // A real metered run stops just past the budget, not
                        // at the full latency; the exact abort point isn't
                        // recoverable from the cache, so report the budget
                        // itself (the metered value truncates to the same
                        // whole work units in all but pathological cases).
                        return Some(Err(FossError::Timeout {
                            spent: b as u64,
                            budget: b as u64,
                        }));
                    }
                }
                Some(Ok(out))
            }
            CachedResult::TimedOut { budget: old, spent } => {
                if let Some(b) = budget.filter(|&b| b <= old) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    // Same budget: replay the recorded error bit-for-bit.
                    // Tighter budget: the abort point isn't recoverable, so
                    // mirror the metered convention as in the Done path.
                    let spent = if b == old { spent } else { b as u64 };
                    return Some(Err(FossError::Timeout {
                        spent,
                        budget: b as u64,
                    }));
                }
                // Larger (or no) budget: re-execute.
                None
            }
        }
    }

    /// Execute (or recall) `plan` under an optional work budget.
    ///
    /// A cached `Done` outcome is returned regardless of the budget (its
    /// latency is exact, the caller can compare against any threshold). A
    /// cached `TimedOut` is only reused when the new budget is not larger
    /// than the budget that failed; otherwise the plan is re-executed.
    ///
    /// Concurrent misses on the same key are single-flighted: exactly one
    /// thread executes, the rest wait for its memoised outcome, so a stampede
    /// of identical submits costs one execution (and counts one miss).
    pub fn execute(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<ExecOutcome> {
        self.execute_tiered(query, plan, budget, None)
    }

    /// [`CachingExecutor::execute`] with an optional tier-2 pipeline.
    ///
    /// When `pipeline` is `Some`, a cache miss runs the fused pipeline
    /// instead of the interpreter. The fused tier charges the identical
    /// work-unit sequence (see [`crate::fused`]), so cache entries, timeout
    /// records and recorded latencies are bit-identical either way — the
    /// tier is invisible to every consumer of this cache. The caller is
    /// responsible for only passing a pipeline compiled for this exact
    /// `(query, plan)` shape (the service keys its tier engine on
    /// [`crate::fused::shape_key`]).
    pub fn execute_tiered(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
        pipeline: Option<&crate::fused::FusedPipeline>,
    ) -> Result<ExecOutcome> {
        if let Some(faults) = &self.faults {
            if faults.roll(FaultSite::CacheError).is_some() {
                return Err(FossError::Transient(
                    "injected cache-layer fault".to_string(),
                ));
            }
            if let Some(rule) = faults.roll(FaultSite::ExecSlow) {
                std::thread::sleep(std::time::Duration::from_micros(rule.param as u64));
            }
        }
        let key = cache_key(query, plan);
        let claim = loop {
            if let Some(res) = self.lookup(key, budget) {
                return res;
            }
            // Miss: claim the key, or wait for whoever holds the claim and
            // then re-check the cache they were filling.
            let mut inflight = self.inflight.lock();
            if !inflight.contains(&key) {
                inflight.insert(key);
                break InflightClaim { cx: self, key };
            }
            let guard: MutexGuard<'_, FxHashSet<CacheKey>> = self.inflight_cv.wait(inflight);
            drop(guard);
        };
        // Double-check under the claim: a racer may have filled the cache
        // between our lookup and the claim.
        if let Some(res) = self.lookup(key, budget) {
            return res;
        }
        self.executions.fetch_add(1, Ordering::Relaxed);
        let outcome = match pipeline {
            Some(fused) => fused.execute(&self.db, self.cost, query, budget),
            None => Executor::new(&self.db, self.cost).execute(query, plan, budget),
        };
        let result = self.record(key, budget, outcome);
        drop(claim);
        result
    }

    /// Memoise one real execution's `outcome` under `key` — a finished run,
    /// or a timeout under a budget — and hand it back.
    fn record(
        &self,
        key: CacheKey,
        budget: Option<f64>,
        outcome: Result<ExecOutcome>,
    ) -> Result<ExecOutcome> {
        let entry = match &outcome {
            Ok(out) => Some(CachedResult::Done(*out)),
            Err(FossError::Timeout { spent, .. }) => budget.map(|b| CachedResult::TimedOut {
                budget: b,
                spent: *spent,
            }),
            Err(_) => None,
        };
        if let Some(entry) = entry {
            self.cache.lock().insert(key, entry);
        }
        outcome
    }

    /// Pre-single-flight `execute` (the PR 6 behaviour before the in-flight
    /// claim was introduced): lookup → execute → insert with **no** claim on
    /// the key, so two concurrent misses on the same key both execute.
    ///
    /// Kept only as a mutation target for the model checker — the
    /// `foss_analysis` regression suite asserts the checker *finds* the
    /// double-execution interleaving in this version, proving the suite would
    /// have caught the original bug. Never compiled into production builds.
    #[cfg(feature = "unflighted-cache")]
    pub fn execute_unflighted(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<ExecOutcome> {
        let key = cache_key(query, plan);
        if let Some(res) = self.lookup(key, budget) {
            return res;
        }
        self.executions.fetch_add(1, Ordering::Relaxed);
        let outcome = Executor::new(&self.db, self.cost).execute(query, plan, budget);
        self.record(key, budget, outcome)
    }

    /// Number of *real* executions performed (cache misses) over the
    /// executor's lifetime; [`CachingExecutor::clear`] does not reset it.
    /// Shorthand for [`CacheStats::executions`] via [`CachingExecutor::stats`].
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// One consistent snapshot of every cache counter (executions, hits,
    /// resident entries) — the single source the serving metrics registry
    /// and the tests consume.
    pub fn stats(&self) -> CacheStats {
        let cache = self.cache.lock();
        CacheStats {
            executions: self.executions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: cache.len(),
        }
    }

    /// Drop all cached outcomes (used between experiment repetitions).
    /// The `executions`/`hits` counters are lifetime totals and are
    /// deliberately left untouched.
    pub fn clear(&self) {
        self.cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_common::QueryId;
    use foss_optimizer::{CardinalityEstimator, TraditionalOptimizer};
    use foss_query::{Predicate, QueryBuilder};
    use foss_storage::{Column, Table};
    use std::sync::Arc;

    fn setup() -> (Database, TraditionalOptimizer, Query) {
        let mut schema = Schema::new();
        schema
            .add_table(TableDef {
                name: "a".into(),
                columns: vec![ColumnDef::indexed("id")],
            })
            .unwrap();
        schema
            .add_table(TableDef {
                name: "b".into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("a_id")],
            })
            .unwrap();
        let schema = Arc::new(schema);
        let a = Table::new("a", vec![("id".into(), Column::new((0..50).collect()))]).unwrap();
        let b = Table::new(
            "b",
            vec![
                ("id".into(), Column::new((0..200).collect())),
                (
                    "a_id".into(),
                    Column::new((0..200).map(|i| i % 50).collect()),
                ),
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![a, b], 8).unwrap();
        let opt = TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(db.stats_vec()),
            CostModel::default(),
        );
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        qb.join(ra, 0, rb, 1);
        let q = qb.build(&schema).unwrap();
        (db, opt, q)
    }

    /// Distinct single-relation queries over the same tiny table: distinct
    /// cache keys with near-zero execution cost.
    fn distinct_queries(db: &Database, n: usize) -> (Vec<Query>, PhysicalPlan) {
        use foss_optimizer::{AccessPath, PlanNode};
        let schema = db.schema().clone();
        let queries = (0..n)
            .map(|i| {
                let mut qb = QueryBuilder::new(QueryId::new(1000 + i), 1);
                let ra = qb.relation(schema.table_id("a").unwrap(), "a");
                qb.predicate(
                    ra,
                    Predicate::Eq {
                        column: 0,
                        value: i as i64 % 50,
                    },
                );
                qb.build(&schema).unwrap()
            })
            .collect();
        let plan = PhysicalPlan {
            root: PlanNode::Scan {
                relation: 0,
                access: AccessPath::SeqScan,
                est_rows: 1.0,
                est_cost: 1.0,
            },
        };
        (queries, plan)
    }

    #[test]
    fn second_execution_hits_cache() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let a = cx.execute(&q, &plan, None).unwrap();
        let b = cx.execute(&q, &plan, None).unwrap();
        assert_eq!(a, b);
        let stats = cx.stats();
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_since_reports_only_new_traffic() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        cx.execute(&q, &plan, None).unwrap(); // "training" miss
        let baseline = cx.stats();
        cx.execute(&q, &plan, None).unwrap(); // "serving" hit
        cx.execute(&q, &plan, None).unwrap();
        let delta = cx.stats().since(&baseline);
        assert_eq!(delta.executions, 0);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.entries, 1, "entries is a gauge, not a delta");
        assert_eq!(delta.hit_rate(), 1.0);
    }

    #[test]
    fn cached_done_respects_tighter_budget() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let out = cx.execute(&q, &plan, None).unwrap();
        let err = cx.execute(&q, &plan, Some(out.latency / 2.0)).unwrap_err();
        assert!(matches!(err, FossError::Timeout { .. }));
        assert_eq!(cx.executions(), 1, "timeout answered from cache");
    }

    #[test]
    fn timed_out_entry_retried_with_larger_budget() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let full = Executor::new(&db, *opt.cost_model())
            .execute(&q, &plan, None)
            .unwrap();
        assert!(cx.execute(&q, &plan, Some(full.latency / 10.0)).is_err());
        assert_eq!(cx.executions(), 1);
        // Same tight budget: cache answers, no new execution.
        assert!(cx.execute(&q, &plan, Some(full.latency / 20.0)).is_err());
        assert_eq!(cx.executions(), 1);
        // Larger budget: re-executes and succeeds.
        let out = cx.execute(&q, &plan, Some(full.latency * 2.0)).unwrap();
        assert_eq!(out, full);
        assert_eq!(cx.executions(), 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        for _ in 0..10 {
            cx.execute(&q, &plan, None).unwrap();
        }
        let s = cx.stats();
        assert_eq!(s.executions, 1);
        assert_eq!(s.hits, 9);
    }

    #[test]
    fn timed_out_upgrade_keeps_cache_bounded() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let full = Executor::new(&db, *opt.cost_model())
            .execute(&q, &plan, None)
            .unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        // Time out once, then upgrade the same key with a larger budget: the
        // re-run overwrites the timed-out entry instead of adding a second.
        assert!(cx.execute(&q, &plan, Some(full.latency / 10.0)).is_err());
        cx.execute(&q, &plan, None).unwrap();
        let s = cx.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.executions, 2);
    }

    /// The miss-stampede regression: N threads submitting the same keys
    /// concurrently must produce exactly one real execution per distinct
    /// key — the single-flight claim makes every racer wait for the first
    /// thread's memoised outcome instead of re-executing.
    #[test]
    fn concurrent_submits_single_flight_to_one_execution_per_key() {
        use std::sync::Barrier;
        let (db, opt, _) = setup();
        let (queries, plan) = distinct_queries(&db, 4);
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let threads = 8;
        let barrier = Barrier::new(threads);
        let outcomes: Vec<Vec<ExecOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let cx = &cx;
                    let queries = &queries;
                    let plan = &plan;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        // Offset start positions so every key sees
                        // concurrent first-misses from several threads.
                        (0..3 * queries.len())
                            .map(|i| {
                                cx.execute(&queries[(t + i) % queries.len()], plan, None)
                                    .unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = cx.stats();
        assert_eq!(
            s.executions,
            queries.len() as u64,
            "each distinct key must execute exactly once"
        );
        assert_eq!(
            s.hits + s.executions,
            (threads * 3 * queries.len()) as u64,
            "every lookup is either the one miss or a hit"
        );
        // Determinism: every thread saw the identical outcome per key.
        let mut reference: Vec<Option<ExecOutcome>> = vec![None; queries.len()];
        for (t, per_thread) in outcomes.iter().enumerate() {
            assert_eq!(per_thread.len(), 3 * queries.len());
            for (i, out) in per_thread.iter().enumerate() {
                let qi = (t + i) % queries.len();
                match reference[qi] {
                    None => reference[qi] = Some(*out),
                    Some(want) => {
                        assert_eq!(*out, want, "outcome for key {qi} differs across threads")
                    }
                }
            }
        }
    }

    /// Satellite check: a cache-served timeout must be indistinguishable —
    /// bit for bit — from the metered run that produced it.
    #[test]
    fn cached_timeout_error_matches_metered_run_bit_for_bit() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let full = Executor::new(&db, *opt.cost_model())
            .execute(&q, &plan, None)
            .unwrap();
        let budget = full.latency / 3.0;
        let metered = Executor::new(&db, *opt.cost_model())
            .execute(&q, &plan, Some(budget))
            .unwrap_err();
        let FossError::Timeout {
            spent: m_spent,
            budget: m_budget,
        } = metered
        else {
            panic!("expected a timeout");
        };
        // The metered convention: the run stops just past the budget, not
        // at the plan's full latency.
        assert!(m_spent as f64 <= full.latency);
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        for round in 0..2 {
            // Round 0 executes and records; round 1 is served from cache.
            let err = cx.execute(&q, &plan, Some(budget)).unwrap_err();
            let FossError::Timeout { spent, budget: b } = err else {
                panic!("expected a timeout");
            };
            assert_eq!((spent, b), (m_spent, m_budget), "round {round}");
        }
        assert_eq!(cx.executions(), 1, "second timeout came from the cache");
    }

    /// Cached `Done` outcomes answered under a tighter budget mirror the
    /// metered convention too: `spent` reports the budget, not the full
    /// latency of the completed run.
    #[test]
    fn cached_done_timeout_reports_budget_not_full_latency() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let out = cx.execute(&q, &plan, None).unwrap();
        let tight = out.latency / 2.0;
        let FossError::Timeout { spent, budget } = cx.execute(&q, &plan, Some(tight)).unwrap_err()
        else {
            panic!("expected a timeout");
        };
        assert_eq!(budget, tight as u64);
        assert_eq!(
            spent, tight as u64,
            "spent mirrors the budget, not {}",
            out.latency
        );
        assert_eq!(cx.executions(), 1);
    }

    #[test]
    fn injected_cache_errors_are_transient_and_deterministic() {
        use foss_common::{FaultPlan, FaultSite};
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let faults = Arc::new(
            FaultPlan::builder(11)
                .fault(FaultSite::CacheError, 1.0)
                .burst(FaultSite::CacheError, 2)
                .build(),
        );
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model())
            .with_fault_plan(faults.clone());
        // The burst: two transient failures, no execution happened.
        for _ in 0..2 {
            let err = cx.execute(&q, &plan, None).unwrap_err();
            assert!(matches!(err, FossError::Transient(_)), "got {err}");
        }
        assert_eq!(cx.stats().executions, 0, "faulted lookups must not run");
        // Healed: the plan executes normally and the cache works again.
        let out = cx.execute(&q, &plan, None).unwrap();
        assert_eq!(cx.execute(&q, &plan, None).unwrap(), out);
        let s = cx.stats();
        assert_eq!((s.executions, s.hits), (1, 1));
        assert_eq!(faults.stats().injected_at(FaultSite::CacheError), 2);
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        use foss_common::FaultPlan;
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let plain = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        let faulted = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model())
            .with_fault_plan(Arc::new(FaultPlan::none()));
        let a = plain.execute(&q, &plan, None).unwrap();
        let b = faulted.execute(&q, &plan, None).unwrap();
        assert_eq!(a, b, "FaultPlan::none() must be invisible");
        assert_eq!(plain.stats(), faulted.stats());
    }

    #[test]
    fn clear_resets_cache() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let cx = CachingExecutor::new(Arc::new(db.clone()), *opt.cost_model());
        cx.execute(&q, &plan, None).unwrap();
        cx.clear();
        assert_eq!(cx.stats().entries, 0);
        cx.execute(&q, &plan, None).unwrap();
        assert_eq!(cx.stats().executions, 2);
    }
}
