//! **PlanDoctor as a service** — the online front end over FOSS.
//!
//! The paper evaluates FOSS in batch (train → evaluate splits); this crate
//! is the serving half the ROADMAP's north star asks for: a long-lived
//! process that admits queries, plans them over an immutable
//! [`PlannerSnapshot`], executes through the shared [`CachingExecutor`],
//! and degrades gracefully to the expert DP plan whenever the learned path
//! cannot be trusted.
//!
//! # Architecture
//!
//! ```text
//!   trainer (Foss, &mut) ──publish──▶ SnapshotCell ◀──load── submit() × N threads
//!                                        │                      │
//!                                        ▼                      ▼
//!                               PlannerSnapshot (&self)   AdmissionGate (permits)
//!                                                               │
//!                                                               ▼
//!                                             CachingExecutor (shared, budgeted)
//!                                                               │
//!                                                               ▼
//!                                             MetricsRegistry (atomic counters)
//! ```
//!
//! Every execution runs on the executor's chunked interpreter, behind its
//! latency cache.
//!
//! # Admission and fallback semantics
//!
//! * **Admission** — at most [`ServiceConfig::max_in_flight`] queries run
//!   concurrently; excess `submit` calls block until a permit frees. The
//!   high-water mark is exported through [`MetricsSnapshot`].
//! * **Planning budget** — if planning wall time exceeds the per-query
//!   budget ([`QueryRequest::planning_budget_us`] overriding
//!   [`ServiceConfig::planning_budget_us`]), the doctored plan is discarded
//!   and the expert plan is served ([`FallbackReason::PlanningTimeout`]).
//! * **Confidence floor** — the snapshot decides
//!   ([`PlannerSnapshot::decide`]): a doctored plan is only run when the
//!   AAM's advantage score over the expert plan reaches
//!   [`ServiceConfig::min_confidence`] ([`FallbackReason::LowConfidence`]
//!   otherwise).
//! * **Execution budget** — the doctored plan runs under
//!   `expert latency × exec_timeout_factor`; blowing it serves the expert
//!   result instead ([`FallbackReason::ExecTimeout`]). The expert plan
//!   itself is never budgeted — it is the safety net.
//!
//! # Robustness: correlated failures and overload
//!
//! The per-query fallbacks above assume failures are independent. Three
//! additional mechanisms (built for correlated failure — a bad snapshot
//! publish, a stalled executor, sustained overload) sit around them:
//!
//! * **Circuit breaker** ([`breaker`]) — learned-path outcomes feed a
//!   sliding window per snapshot generation; past a failure-rate threshold
//!   the breaker opens and `submit` serves the expert DP plan directly
//!   ([`FallbackReason::BreakerOpen`]) without paying learned-planning
//!   cost, then recovers through half-open probes.
//! * **Retry with backoff** — transient executor failures
//!   ([`FossError::Transient`]) on the doctored path are retried up to
//!   [`ServiceConfig::max_retries`] times with exponential backoff, within
//!   the request's remaining deadline; exhausted retries fall back to the
//!   expert plan ([`FallbackReason::ExecError`]).
//! * **Deadline-aware admission and load shedding** — requests carry a
//!   [`Priority`] and an optional deadline ([`QueryRequest::deadline_us`]).
//!   The admission wait is bounded: low-priority requests wait at most
//!   [`ServiceConfig::low_shed_wait_us`] (0 by default — low sheds first),
//!   high-priority requests wait up to their deadline (unbounded without
//!   one). A shed request returns [`FossError::Overloaded`] without doing
//!   any work. A deadline that expires after admission degrades to the
//!   expert plan ([`FallbackReason::DeadlineExceeded`]).
//!
//! For testing all of this deterministically, a seeded
//! [`foss_common::FaultPlan`] can be attached with
//! [`PlanDoctor::with_fault_plan`] (and to the executor with
//! [`CachingExecutor::with_fault_plan`]): planning stalls, executor
//! timeouts/errors, cache faults and snapshot-publish failures are then
//! injected at controlled, bit-reproducible rates. Without a plan every
//! hook is a branch on `None` — the production path is unchanged, and a
//! run with [`foss_common::FaultPlan::none`] attached is bit-identical to
//! one with no plan at all (the fault-transparency proptest enforces it).
//!
//! Every completed query is counted under its [`FallbackReason`] in the
//! atomic [`MetricsRegistry`]; [`PlanDoctor::metrics`] snapshots p50/p95/p99
//! latency, fallback rate, cache hit rate, the in-flight high-water mark,
//! shed/retry counts and the breaker state.

pub mod breaker;
pub mod gate;
pub mod http;
pub mod json;
pub mod metrics;
pub mod prelude;
pub mod tier;
pub mod wire;

use std::sync::Arc;
use std::time::{Duration, Instant};

use foss_common::sync::Mutex;
use foss_common::{FaultPlan, FaultSite, FossError, FxHashMap, Result};
use foss_core::{PlannerSnapshot, SnapshotCell, DEFAULT_MIN_CONFIDENCE};
use foss_executor::CachingExecutor;
use foss_optimizer::PhysicalPlan;
use foss_query::Query;

pub use breaker::{BreakerConfig, BreakerDecision, BreakerState, BreakerView, CircuitBreaker};
pub use gate::{AdmissionGate, Permit};
pub use http::{PlanClient, PlanOutcome, PlanServer, Rejection};
pub use json::Json;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use tier::{TierConfig, TierEngine};
pub use wire::{PlanReply, PlanRequest, WireError};

/// Serving knobs (see the module docs for the semantics of each).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Admission ceiling: queries allowed in flight simultaneously.
    pub max_in_flight: usize,
    /// Default per-query planning budget (µs); `None` disables the check.
    pub planning_budget_us: Option<f64>,
    /// Minimum AAM advantage score (over the expert plan) a doctored plan
    /// needs before the service will run it; the floor
    /// [`PlannerSnapshot::decide`] applies (default
    /// [`DEFAULT_MIN_CONFIDENCE`]).
    pub min_confidence: usize,
    /// Execution budget for doctored plans, as a multiple of the expert
    /// plan's latency.
    pub exec_timeout_factor: f64,
    /// Circuit-breaker thresholds over the learned path (see [`breaker`]).
    pub breaker: BreakerConfig,
    /// Retries for transient doctored-execution failures before falling
    /// back to the expert plan.
    pub max_retries: usize,
    /// Base backoff between retries (µs); attempt `n` backs off
    /// `retry_backoff_us × 2ⁿ`.
    pub retry_backoff_us: f64,
    /// Longest a low-priority request may wait for admission (µs); `0`
    /// sheds low-priority traffic immediately when the gate is full, which
    /// is what guarantees low sheds before high under overload.
    pub low_shed_wait_us: f64,
    /// Field-less; kept for `benchmark/src/traced.rs` until ROADMAP item 18.
    pub tier: TierConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 16,
            planning_budget_us: None,
            min_confidence: DEFAULT_MIN_CONFIDENCE,
            exec_timeout_factor: 10.0,
            breaker: BreakerConfig::default(),
            max_retries: 2,
            retry_backoff_us: 100.0,
            low_shed_wait_us: 0.0,
            tier: TierConfig,
        }
    }
}

/// Admission priority class. Under saturation, [`Priority::Low`] requests
/// are shed first: they never wait longer than
/// [`ServiceConfig::low_shed_wait_us`], while [`Priority::High`] requests
/// wait up to their deadline (or indefinitely without one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; shed only when its own deadline expires.
    #[default]
    High,
    /// Best-effort traffic; first to go under overload.
    Low,
}

/// One query submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query to plan and execute.
    pub query: Query,
    /// Per-request planning budget override (µs).
    pub planning_budget_us: Option<f64>,
    /// Admission priority class (default [`Priority::High`]).
    pub priority: Priority,
    /// End-to-end deadline (µs of wall clock from `submit` entry,
    /// spanning queueing, planning and execution). Bounds the admission
    /// wait; once expired, the request degrades to the expert plan
    /// ([`FallbackReason::DeadlineExceeded`]) instead of attempting the
    /// doctored path. `None` (the default) disables every deadline check.
    pub deadline_us: Option<f64>,
}

impl QueryRequest {
    /// A request with the service-default budgets, high priority and no
    /// deadline.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            planning_budget_us: None,
            priority: Priority::High,
            deadline_us: None,
        }
    }

    /// Override the planning budget for this request only.
    #[must_use]
    pub fn with_planning_budget_us(mut self, budget_us: f64) -> Self {
        self.planning_budget_us = Some(budget_us);
        self
    }

    /// Set the admission priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the end-to-end deadline (µs from `submit` entry).
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: f64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Wall-clock µs this request has left, if it carries a deadline.
    fn remaining_us(&self, start: Instant) -> Option<f64> {
        self.deadline_us
            .map(|d| d - start.elapsed().as_secs_f64() * 1e6)
    }
}

/// Why a query was answered with the expert plan instead of the doctored
/// one ([`FallbackReason::None`] when the doctored decision stood).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The doctored decision was served.
    None,
    /// Planning exceeded its wall-clock budget.
    PlanningTimeout,
    /// The AAM's confidence in the doctored plan was below the floor.
    LowConfidence,
    /// The doctored plan exceeded its execution budget.
    ExecTimeout,
    /// The doctored plan kept failing transiently after every retry.
    ExecError,
    /// The circuit breaker was open: the expert plan was served directly,
    /// without attempting learned planning at all.
    BreakerOpen,
    /// The request's deadline expired before the doctored plan could be
    /// attempted.
    DeadlineExceeded,
}

impl FallbackReason {
    /// What this outcome tells the breaker about the learned path: a
    /// success, a failure, or nothing. Fallbacks the model asked for
    /// (`LowConfidence`), that load caused (`DeadlineExceeded`) or that
    /// never ran the learned path (`BreakerOpen`) say nothing about
    /// snapshot health.
    fn breaker_signal(self) -> Option<bool> {
        match self {
            Self::None => Some(true),
            Self::PlanningTimeout | Self::ExecTimeout | Self::ExecError => Some(false),
            Self::LowConfidence | Self::DeadlineExceeded | Self::BreakerOpen => None,
        }
    }
}

/// The fallback policy for a request whose learned planning finished,
/// checked in precedence order: planning budget, then the confidence
/// floor's verdict (`low_confidence`, from [`PlannerSnapshot::decide`]),
/// then deadline.
fn judge(
    planning_us: f64,
    budget_us: Option<f64>,
    low_confidence: bool,
    remaining_us: Option<f64>,
) -> FallbackReason {
    if budget_us.is_some_and(|b| planning_us > b) {
        FallbackReason::PlanningTimeout
    } else if low_confidence {
        FallbackReason::LowConfidence
    } else if remaining_us.is_some_and(|rem| rem <= 0.0) {
        // Queueing + planning ate the whole deadline: don't spend more on a
        // doctored run — the expert result is already in hand.
        FallbackReason::DeadlineExceeded
    } else {
        FallbackReason::None
    }
}

/// What the service decided (and observed) for one query.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The plan that was executed for the caller.
    pub plan: PhysicalPlan,
    /// Whether the expert plan was served in place of the doctored plan.
    pub fallback: bool,
    /// Why (when `fallback` is true).
    pub reason: FallbackReason,
    /// Wall-clock planning time (µs).
    pub planning_us: f64,
    /// Execution latency of the served plan (work units ≡ µs).
    pub latency: f64,
    /// Doctor step the *doctored candidate* came from (0 = the doctor
    /// itself kept the expert plan). Diagnostic only: when `fallback` is
    /// true the served `plan` is the expert plan regardless of this value.
    pub selected_step: usize,
    /// Candidate plans the tournament considered.
    pub candidates: usize,
    /// Transient-failure retries this query performed before resolving.
    pub retries: usize,
}

/// The serving front end: snapshot handle + executor + admission + metrics.
///
/// `submit` takes `&self`; share one `PlanDoctor` across worker threads
/// (e.g. behind an `Arc`) and call [`PlanDoctor::publish`] from the
/// training loop to hot-swap the model underneath running traffic.
pub struct PlanDoctor {
    snapshots: SnapshotCell,
    executor: Arc<CachingExecutor>,
    /// Executor counters at construction time: the executor is typically
    /// shared with the trainer, so serving metrics report deltas from here
    /// rather than lifetime totals polluted by pre-service training
    /// traffic. (A trainer that keeps executing on the shared executor
    /// *while* the service runs still lands in the delta — see
    /// [`PlanDoctor::metrics`].)
    cache_baseline: foss_executor::CacheStats,
    /// Every expert plan this service has served, keyed by
    /// [`Query::fingerprint`]: a query pays its DP run once, not per
    /// submit, whatever id it arrives under. Cleared on
    /// [`PlanDoctor::publish`].
    expert_memo: Mutex<FxHashMap<u64, PhysicalPlan>>,
    cfg: ServiceConfig,
    gate: AdmissionGate,
    metrics: MetricsRegistry,
    breaker: CircuitBreaker,
    /// Deterministic fault hooks ([`FaultSite::PlanStall`] /
    /// [`FaultSite::ExecTimeout`] / [`FaultSite::ExecError`] /
    /// [`FaultSite::PublishFail`]); `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl PlanDoctor {
    /// Serve `snapshot` through `executor` under `cfg`.
    pub fn new(
        snapshot: PlannerSnapshot,
        executor: Arc<CachingExecutor>,
        cfg: ServiceConfig,
    ) -> Self {
        Self {
            snapshots: SnapshotCell::new(snapshot),
            cache_baseline: executor.stats(),
            executor,
            expert_memo: Mutex::new(FxHashMap::default()),
            gate: AdmissionGate::new(cfg.max_in_flight),
            metrics: MetricsRegistry::default(),
            breaker: CircuitBreaker::new(cfg.breaker),
            faults: None,
            cfg,
        }
    }

    /// Attach a deterministic fault plan (chainable; chaos tests only).
    /// The service then consults it for planning stalls, doctored-execution
    /// timeouts/transient errors and snapshot-publish failures. Share the
    /// same `Arc` with [`CachingExecutor::with_fault_plan`] to coordinate
    /// cache-layer faults under one seed.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The circuit breaker over the learned path (read-only view for
    /// operators and tests; `submit` drives its state machine).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Counters from the attached fault plan (all-zero when none is).
    pub fn fault_stats(&self) -> foss_common::FaultStats {
        self.faults
            .as_deref()
            .map(FaultPlan::stats)
            .unwrap_or_default()
    }

    /// Hot-swap the served model; in-flight queries finish on the snapshot
    /// they loaded, subsequent submits plan on the new one. The expert-plan
    /// memo is dropped: the new snapshot's optimizer plans from now on.
    ///
    /// A failed publish ([`FaultSite::PublishFail`] under chaos, or any
    /// future real failure mode) leaves the previous generation serving —
    /// degraded-but-correct is the contract, and the breaker keeps scoring
    /// the generation that is actually live.
    pub fn publish(&self, snapshot: PlannerSnapshot) -> Result<()> {
        if let Some(faults) = &self.faults {
            if faults.roll(FaultSite::PublishFail).is_some() {
                return Err(FossError::Transient(
                    "injected snapshot-publish failure".to_string(),
                ));
            }
        }
        self.snapshots.publish(snapshot);
        self.expert_memo.lock().clear();
        Ok(())
    }

    /// How many snapshots have been published since construction.
    pub fn snapshot_generation(&self) -> u64 {
        self.snapshots.generation()
    }

    /// The snapshot currently being served — the same view an in-flight
    /// `submit` plans with. The wire layer uses it to decode `POST
    /// /publish` payloads against the serving workload's expert optimizer.
    pub fn snapshot(&self) -> Arc<PlannerSnapshot> {
        self.snapshots.load()
    }

    /// The expert plan for `query`: from the service memo, else one DP run
    /// of the snapshot's optimizer, which is then memoised.
    fn expert_plan(&self, snapshot: &PlannerSnapshot, query: &Query) -> Result<PhysicalPlan> {
        let key = query.fingerprint();
        if let Some(plan) = self.expert_memo.lock().get(&key) {
            return Ok(plan.clone());
        }
        let plan = snapshot.expert_plan(query)?;
        self.expert_memo.lock().insert(key, plan.clone());
        Ok(plan)
    }

    /// Plan, budget-check, execute and record one query (see the module
    /// docs for the full decision procedure). Waits while the admission
    /// gate is full — unboundedly for default requests, bounded by the
    /// priority class and deadline otherwise (a request that cannot be
    /// admitted in time is shed with [`FossError::Overloaded`]). Safe to
    /// call from any number of threads. Failed submissions count into the
    /// registry's `errors` gauge; sheds into the per-class shed counters.
    pub fn submit(&self, req: QueryRequest) -> Result<PlanDecision> {
        let start = Instant::now();
        let _permit = self.acquire_permit(&req, start)?;
        let generation = self.snapshots.generation();
        let admitted = self.breaker.admit(generation);
        let learned = admitted != BreakerDecision::Bypass;
        let result = self.serve(&req, start, learned);
        // A bypassed request fails or succeeds without the learned path, so
        // it never feeds the breaker.
        let signal = match &result {
            Ok(decision) => decision.reason.breaker_signal(),
            Err(_) => learned.then_some(false),
        };
        if let Some(success) = signal {
            self.breaker
                .on_outcome(generation, success, admitted == BreakerDecision::Probe);
        }
        if result.is_err() {
            self.metrics.record_error();
        }
        result
    }

    /// Take an admission permit under the request's priority class and
    /// deadline, or shed.
    fn acquire_permit(&self, req: &QueryRequest, start: Instant) -> Result<Permit<'_>> {
        let low = req.priority == Priority::Low;
        // Low priority waits at most `low_shed_wait_us` (capped further by
        // its deadline); high priority waits out its deadline, or forever
        // without one — the pre-robustness behaviour.
        let wait_us = if low {
            Some(match req.deadline_us {
                Some(d) => d.min(self.cfg.low_shed_wait_us),
                None => self.cfg.low_shed_wait_us,
            })
        } else {
            req.deadline_us
        };
        let permit = match wait_us {
            None => Some(self.gate.acquire()),
            Some(us) if us <= 0.0 => self.gate.try_acquire(),
            Some(us) => self.gate.acquire_timeout(Duration::from_micros(us as u64)),
        };
        permit.ok_or_else(|| {
            self.metrics.record_shed(low);
            FossError::Overloaded {
                low_priority: low,
                waited_us: start.elapsed().as_micros() as u64,
            }
        })
    }

    /// Execute the doctored candidate under its work budget, with fault
    /// injection and transient-failure retries. Returns the served latency
    /// on success; on give-up, the fallback reason to degrade with.
    fn execute_doctored(
        &self,
        req: &QueryRequest,
        plan: &PhysicalPlan,
        exec_budget: f64,
        start: Instant,
        retries: &mut usize,
    ) -> Result<std::result::Result<f64, FallbackReason>> {
        loop {
            let injected = self.faults.as_deref().and_then(|f| {
                if f.roll(FaultSite::ExecTimeout).is_some() {
                    Some(FossError::Timeout {
                        spent: exec_budget as u64,
                        budget: exec_budget as u64,
                    })
                } else if f.roll(FaultSite::ExecError).is_some() {
                    Some(FossError::Transient(
                        "injected doctored-execution fault".to_string(),
                    ))
                } else {
                    None
                }
            });
            let attempt = match injected {
                Some(e) => Err(e),
                None => self.executor.execute(&req.query, plan, Some(exec_budget)),
            };
            match attempt {
                Ok(out) => return Ok(Ok(out.latency)),
                Err(FossError::Timeout { .. }) => return Ok(Err(FallbackReason::ExecTimeout)),
                Err(FossError::Transient(_)) => {
                    if *retries >= self.cfg.max_retries {
                        return Ok(Err(FallbackReason::ExecError));
                    }
                    let backoff_us = self.cfg.retry_backoff_us * (1u64 << *retries) as f64;
                    // A retry only makes sense if the backoff fits in the
                    // request's remaining deadline.
                    if req.remaining_us(start).is_some_and(|rem| rem < backoff_us) {
                        return Ok(Err(FallbackReason::ExecError));
                    }
                    *retries += 1;
                    self.metrics.record_retry();
                    if backoff_us > 0.0 {
                        std::thread::sleep(Duration::from_micros(backoff_us as u64));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Plan, judge, execute and record one admitted query. With `learned`
    /// false (an open breaker) learned planning and the doctored run are
    /// skipped, and the expert plan is served as
    /// [`FallbackReason::BreakerOpen`].
    fn serve(&self, req: &QueryRequest, start: Instant, learned: bool) -> Result<PlanDecision> {
        let snapshot = self.snapshots.load();

        // Planning: the expert plan (needed for the fallback anyway, so it
        // is planned exactly once and memoised) plus, on the learned path,
        // the doctored repair over it.
        let t0 = Instant::now();
        if let Some(faults) = self.faults.as_deref().filter(|_| learned) {
            if let Some(rule) = faults.roll(FaultSite::PlanStall) {
                std::thread::sleep(Duration::from_micros(rule.param as u64));
            }
        }
        let expert_plan = self.expert_plan(&snapshot, &req.query)?;
        let decision = if learned {
            Some(snapshot.decide(&req.query, &expert_plan, self.cfg.min_confidence)?)
        } else {
            None
        };
        let planning_us = t0.elapsed().as_secs_f64() * 1e6;

        // The safety net: the expert plan, executed unbudgeted.
        let expert = self.executor.execute(&req.query, &expert_plan, None)?;

        let mut reason = match &decision {
            Some(decision) => judge(
                planning_us,
                req.planning_budget_us.or(self.cfg.planning_budget_us),
                decision.low_confidence,
                req.remaining_us(start),
            ),
            None => FallbackReason::BreakerOpen,
        };
        let (selected_step, candidates) = decision.as_ref().map_or((0, 0), |d| {
            (d.inference.selected_step, d.inference.candidates)
        });
        let mut retries = 0;
        let (plan, latency) = match decision.map(|d| d.plan) {
            Some(doctored) if reason == FallbackReason::None => {
                if doctored.fingerprint() == expert_plan.fingerprint() {
                    (doctored, expert.latency)
                } else {
                    let budget = expert.latency * self.cfg.exec_timeout_factor;
                    match self.execute_doctored(req, &doctored, budget, start, &mut retries)? {
                        Ok(latency) => (doctored, latency),
                        Err(fallback) => {
                            reason = fallback;
                            (expert_plan, expert.latency)
                        }
                    }
                }
            }
            _ => (expert_plan, expert.latency),
        };

        self.metrics.record(reason, planning_us, latency);
        Ok(PlanDecision {
            plan,
            fallback: reason != FallbackReason::None,
            reason,
            planning_us,
            latency,
            selected_step,
            candidates,
            retries,
        })
    }

    /// Current metrics. Percentiles are computed at call time over the
    /// most recent samples; cache counters are deltas since this
    /// `PlanDoctor` was constructed, so a trainer-shared executor's
    /// training traffic does not skew the serving hit rate.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.executor.stats().since(&self.cache_baseline),
            self.gate.high_water(),
            self.breaker.view(),
            self.fault_stats().injected_total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_core::envs::tests_support::TestWorld;
    use foss_core::{Foss, FossConfig};
    use foss_query::QueryBuilder;

    struct Served {
        world: TestWorld,
        foss: Foss,
        doctor: PlanDoctor,
    }

    fn served(seed: u64, cfg: ServiceConfig) -> Served {
        let world = TestWorld::new(seed);
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        let mut foss = Foss::new(
            Arc::new(world.opt.clone()),
            executor.clone(),
            3,
            world.db.stats().iter().map(|s| s.row_count).collect(),
            FossConfig {
                episodes_per_update: 6,
                seed,
                ..FossConfig::tiny()
            },
        );
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        let doctor = PlanDoctor::new(foss.snapshot(), executor, cfg);
        Served {
            world,
            foss,
            doctor,
        }
    }

    /// Distinct queries over the TestWorld schema (full chain + both
    /// two-table joins), so aggregate tests have a real multiset.
    fn query_mix(world: &TestWorld) -> Vec<Query> {
        let schema = world.db.schema().clone();
        let mut queries = vec![world.query.clone()];
        for (i, pair) in [("a", "b"), ("a", "c")].iter().enumerate() {
            let mut qb = QueryBuilder::new(foss_common::QueryId::new(100 + i), 1);
            let l = qb.relation(schema.table_id(pair.0).unwrap(), pair.0);
            let r = qb.relation(schema.table_id(pair.1).unwrap(), pair.1);
            qb.join(l, 0, r, 1);
            queries.push(qb.build(&schema).unwrap());
        }
        queries
    }

    #[test]
    fn submit_plans_executes_and_records() {
        let s = served(31, ServiceConfig::default());
        let decision = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert!(decision.latency > 0.0);
        assert!(decision.candidates >= 4);
        if !decision.fallback {
            assert_eq!(decision.reason, FallbackReason::None);
        }
        let m = s.doctor.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.errors, 0);
        assert!(m.latency_p50 > 0.0);
        assert_eq!(m.latency_p50, m.latency_p99, "single sample");
        // The expert plan was memoised for subsequent submits.
        assert_eq!(s.doctor.expert_memo.lock().len(), 1);
        // The served plan preserves query semantics.
        let served_rows = s
            .doctor
            .executor
            .execute(&s.world.query, &decision.plan, None)
            .unwrap()
            .rows;
        let expert_rows = s
            .doctor
            .executor
            .execute(&s.world.query, &s.world.original, None)
            .unwrap()
            .rows;
        assert_eq!(served_rows, expert_rows);
    }

    #[test]
    fn forced_planning_timeout_falls_back_to_expert_plan() {
        let s = served(32, ServiceConfig::default());
        let req = QueryRequest::new(s.world.query.clone()).with_planning_budget_us(0.0);
        let decision = s.doctor.submit(req).unwrap();
        assert!(decision.fallback, "zero budget must force fallback");
        assert_eq!(decision.reason, FallbackReason::PlanningTimeout);
        let expert = s.world.opt.optimize(&s.world.query).unwrap();
        assert_eq!(
            decision.plan.fingerprint(),
            expert.fingerprint(),
            "fallback must serve the expert DP plan"
        );
        let m = s.doctor.metrics();
        assert_eq!((m.fallbacks, m.planning_timeouts), (1, 1));
        assert!((m.fallback_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_floor_gates_doctored_plans() {
        // An unreachable confidence floor: every doctored plan (step != 0)
        // must fall back; kept expert plans (step == 0) must not count as
        // fallbacks.
        let s = served(
            33,
            ServiceConfig {
                min_confidence: usize::MAX,
                ..ServiceConfig::default()
            },
        );
        for q in query_mix(&s.world) {
            let d = s.doctor.submit(QueryRequest::new(q.clone())).unwrap();
            if d.selected_step == 0 {
                assert!(!d.fallback);
            } else {
                assert!(d.fallback);
                assert_eq!(d.reason, FallbackReason::LowConfidence);
                let expert = s.world.opt.optimize(&q).unwrap();
                assert_eq!(d.plan.fingerprint(), expert.fingerprint());
            }
        }
    }

    #[test]
    fn concurrent_submits_match_serial_outcome_multiset() {
        let key = |d: &PlanDecision| {
            (
                d.plan.fingerprint(),
                d.latency.to_bits(),
                d.fallback,
                d.selected_step,
            )
        };
        // Serial reference run on its own service instance.
        let serial = served(34, ServiceConfig::default());
        let queries = query_mix(&serial.world);
        let mut expected: Vec<_> = Vec::new();
        for rep in 0..4 {
            for q in &queries {
                let _ = rep;
                expected.push(key(&serial
                    .doctor
                    .submit(QueryRequest::new(q.clone()))
                    .unwrap()));
            }
        }
        expected.sort_unstable();

        // Concurrent run: 4 threads, each submitting every query once.
        let concurrent = served(34, ServiceConfig::default());
        let queries = query_mix(&concurrent.world);
        let mut observed: Vec<_> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let doctor = &concurrent.doctor;
                    let queries = queries.clone();
                    scope.spawn(move || {
                        queries
                            .iter()
                            .map(|q| key(&doctor.submit(QueryRequest::new(q.clone())).unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        observed.sort_unstable();
        assert_eq!(
            observed, expected,
            "concurrent aggregate must equal the serial outcome multiset"
        );
        let m = concurrent.doctor.metrics();
        assert_eq!(m.submitted, 12);
        assert!(m.in_flight_high_water >= 1 && m.in_flight_high_water <= 16);
        assert!(m.cache_hit_rate > 0.0, "repeat queries must hit the cache");
    }

    #[test]
    fn cache_metrics_exclude_training_traffic() {
        // `served` trains over the same executor the doctor serves from;
        // before any submit, the serving-side cache stats must read zero.
        let s = served(37, ServiceConfig::default());
        assert!(s.doctor.executor.stats().executions > 0, "training ran");
        let m = s.doctor.metrics();
        assert_eq!(m.cache.executions, 0);
        assert_eq!(m.cache.hits, 0);
        assert_eq!(m.cache_hit_rate, 0.0);
        // Submitting the training query twice: serving sees its own hits.
        s.doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        s.doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        let m = s.doctor.metrics();
        assert!(m.cache.hits > 0);
        assert!(m.cache_hit_rate > 0.0);
    }

    #[test]
    fn admission_gate_bounds_in_flight_queries() {
        let s = served(
            35,
            ServiceConfig {
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let doctor = &s.doctor;
                let query = s.world.query.clone();
                scope.spawn(move || doctor.submit(QueryRequest::new(query)).unwrap());
            }
        });
        let m = s.doctor.metrics();
        assert_eq!(m.submitted, 6);
        assert!(
            m.in_flight_high_water <= 2,
            "admission ceiling violated: {}",
            m.in_flight_high_water
        );
    }

    #[test]
    fn publish_hot_swaps_the_served_snapshot() {
        let mut s = served(36, ServiceConfig::default());
        let before = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert_eq!(s.doctor.snapshot_generation(), 0);
        s.foss
            .train_iteration(std::slice::from_ref(&s.world.query), 2)
            .unwrap();
        s.doctor.publish(s.foss.snapshot()).unwrap();
        assert_eq!(s.doctor.snapshot_generation(), 1);
        let after = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        // Both generations serve valid plans for the same query.
        assert!(before.latency > 0.0 && after.latency > 0.0);
    }

    #[test]
    fn low_priority_sheds_before_high_under_saturation() {
        let s = served(
            41,
            ServiceConfig {
                max_in_flight: 1,
                ..ServiceConfig::default()
            },
        );
        // Saturate the gate from outside so both classes face a full
        // service.
        let held = s.doctor.gate.acquire();
        let low = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()).with_priority(Priority::Low));
        match low {
            Err(FossError::Overloaded { low_priority, .. }) => assert!(low_priority),
            other => panic!("low priority must shed immediately, got {other:?}"),
        }
        // High priority without a deadline would wait forever; with one, it
        // sheds only after waiting the deadline out.
        let high = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()).with_deadline_us(2000.0));
        match high {
            Err(FossError::Overloaded {
                low_priority,
                waited_us,
            }) => {
                assert!(!low_priority);
                assert!(waited_us >= 2000, "high must wait its deadline out");
            }
            other => panic!("saturated high with deadline must shed, got {other:?}"),
        }
        drop(held);
        // Once capacity frees, the same low-priority request is served.
        s.doctor
            .submit(QueryRequest::new(s.world.query.clone()).with_priority(Priority::Low))
            .unwrap();
        let m = s.doctor.metrics();
        assert_eq!((m.shed_low, m.shed_high, m.sheds), (1, 1, 2));
        assert_eq!(m.submitted, 1, "sheds are not completions");
        assert_eq!(m.errors, 0, "sheds are not errors");
    }

    #[test]
    fn expired_deadline_degrades_to_expert_plan() {
        let s = served(42, ServiceConfig::default());
        // A microsecond-scale deadline admits instantly (the gate is
        // empty) but is guaranteed spent by the time planning finishes.
        let d = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()).with_deadline_us(0.001))
            .unwrap();
        assert!(d.fallback);
        assert_eq!(d.reason, FallbackReason::DeadlineExceeded);
        let expert = s.world.opt.optimize(&s.world.query).unwrap();
        assert_eq!(d.plan.fingerprint(), expert.fingerprint());
        let m = s.doctor.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        // Deadline overruns are load, not snapshot failures: the breaker
        // must not learn from them.
        assert_eq!(m.breaker_state, BreakerState::Closed);
        assert_eq!(m.breaker_transitions, 0);
    }

    #[test]
    fn transient_exec_fault_is_retried_then_succeeds() {
        let mut s = served(
            43,
            ServiceConfig {
                retry_backoff_us: 0.0,
                ..ServiceConfig::default()
            },
        );
        // One injected transient failure, then the site heals.
        let faults = Arc::new(
            FaultPlan::builder(7)
                .fault(FaultSite::ExecError, 1.0)
                .burst(FaultSite::ExecError, 1)
                .build(),
        );
        s.doctor.faults = Some(faults.clone());
        let plan = s.world.opt.optimize(&s.world.query).unwrap();
        let req = QueryRequest::new(s.world.query.clone());
        let mut retries = 0;
        let outcome = s
            .doctor
            .execute_doctored(&req, &plan, 1e12, Instant::now(), &mut retries)
            .unwrap();
        assert!(outcome.is_ok(), "retry after the burst must succeed");
        assert_eq!(retries, 1);
        assert_eq!(faults.stats().injected_total(), 1);
        assert_eq!(s.doctor.metrics().retries, 1);
    }

    #[test]
    fn exhausted_retries_fall_back_with_exec_error() {
        let mut s = served(
            44,
            ServiceConfig {
                max_retries: 2,
                retry_backoff_us: 0.0,
                ..ServiceConfig::default()
            },
        );
        s.doctor.faults = Some(Arc::new(
            FaultPlan::builder(7)
                .fault(FaultSite::ExecError, 1.0)
                .build(),
        ));
        let plan = s.world.opt.optimize(&s.world.query).unwrap();
        let req = QueryRequest::new(s.world.query.clone());
        let mut retries = 0;
        let outcome = s
            .doctor
            .execute_doctored(&req, &plan, 1e12, Instant::now(), &mut retries)
            .unwrap();
        assert_eq!(outcome, Err(FallbackReason::ExecError));
        assert_eq!(retries, 2, "gives up after max_retries");
    }

    #[test]
    fn plan_stall_fault_forces_planning_timeout() {
        let mut s = served(
            45,
            ServiceConfig {
                planning_budget_us: Some(2000.0),
                ..ServiceConfig::default()
            },
        );
        s.doctor.faults = Some(Arc::new(
            FaultPlan::builder(11)
                .fault_param(FaultSite::PlanStall, 1.0, 10_000.0)
                .build(),
        ));
        let d = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert_eq!(d.reason, FallbackReason::PlanningTimeout);
        assert!(
            d.planning_us >= 10_000.0,
            "the stall is inside the budget window"
        );
        let m = s.doctor.metrics();
        assert_eq!(m.planning_timeouts, 1);
        assert_eq!(m.faults_injected, 1);
    }

    #[test]
    fn publish_failure_keeps_previous_generation_serving() {
        let mut s = served(46, ServiceConfig::default());
        s.doctor.faults = Some(Arc::new(
            FaultPlan::builder(13)
                .fault(FaultSite::PublishFail, 1.0)
                .burst(FaultSite::PublishFail, 1)
                .build(),
        ));
        s.foss
            .train_iteration(std::slice::from_ref(&s.world.query), 2)
            .unwrap();
        let snap = s.foss.snapshot();
        assert!(matches!(
            s.doctor.publish(snap.clone()),
            Err(FossError::Transient(_))
        ));
        assert_eq!(
            s.doctor.snapshot_generation(),
            0,
            "failed publish is a no-op"
        );
        // The old generation still serves; a retried publish (site healed
        // after the burst) goes through.
        s.doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        s.doctor.publish(snap).unwrap();
        assert_eq!(s.doctor.snapshot_generation(), 1);
    }

    #[test]
    fn served_latencies_equal_a_direct_interpreter_run() {
        let s = served(51, ServiceConfig::default());
        let direct = foss_executor::Executor::new(&s.world.db, *s.world.opt.cost_model());
        for q in query_mix(&s.world) {
            for _ in 0..3 {
                let d = s.doctor.submit(QueryRequest::new(q.clone())).unwrap();
                let want = direct.execute(&q, &d.plan, None).unwrap().latency;
                assert_eq!(d.latency.to_bits(), want.to_bits(), "served latency moved");
                // The expert plan always executes; a served doctored plan too.
                assert!(matches!(
                    d.reason,
                    FallbackReason::None | FallbackReason::LowConfidence
                ));
            }
        }
    }

    #[test]
    fn open_breaker_bypasses_learned_path_and_recovers_via_probe() {
        let s = served(
            47,
            ServiceConfig {
                // `min_confidence: 0` makes probe success deterministic
                // (no LowConfidence fallback can occur).
                min_confidence: 0,
                breaker: BreakerConfig {
                    window: 4,
                    min_samples: 2,
                    failure_threshold: 0.5,
                    cooldown: 2,
                    probes: 1,
                },
                ..ServiceConfig::default()
            },
        );
        // Correlated learned-path failures (fed directly — the unit tests
        // for organic failure live in `breaker`): the breaker opens.
        s.doctor.breaker().on_outcome(0, false, false);
        s.doctor.breaker().on_outcome(0, false, false);
        assert_eq!(s.doctor.breaker().state(), BreakerState::Open);
        // First submit while open: bypassed — expert served directly.
        let d = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert_eq!(d.reason, FallbackReason::BreakerOpen);
        assert!(d.fallback);
        assert_eq!((d.selected_step, d.candidates), (0, 0));
        let expert = s.world.opt.optimize(&s.world.query).unwrap();
        assert_eq!(d.plan.fingerprint(), expert.fingerprint());
        // Second submit exhausts the cooldown and runs as the recovery
        // probe; its success closes the breaker.
        let d = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert_eq!(d.reason, FallbackReason::None);
        assert_eq!(s.doctor.breaker().state(), BreakerState::Closed);
        // Steady state restored: subsequent traffic is normal.
        let d = s
            .doctor
            .submit(QueryRequest::new(s.world.query.clone()))
            .unwrap();
        assert_eq!(d.reason, FallbackReason::None);
        let m = s.doctor.metrics();
        assert_eq!(m.breaker_open_served, 1);
        assert_eq!(m.breaker_times_opened, 1);
        assert_eq!(m.breaker_state, BreakerState::Closed);
    }

    #[test]
    fn bypassed_request_rolls_no_fault_site() {
        let mut s = served(
            48,
            ServiceConfig {
                breaker: BreakerConfig {
                    window: 4,
                    min_samples: 2,
                    failure_threshold: 0.5,
                    cooldown: 100,
                    probes: 1,
                },
                ..ServiceConfig::default()
            },
        );
        s.doctor.faults = Some(Arc::new(
            FaultPlan::builder(17)
                .fault_param(FaultSite::PlanStall, 1.0, 0.0)
                .fault(FaultSite::ExecTimeout, 1.0)
                .fault(FaultSite::ExecError, 1.0)
                .build(),
        ));
        let req = || QueryRequest::new(s.world.query.clone());
        // The learned path rolls the planning stall on every request.
        s.doctor.submit(req()).unwrap();
        assert_eq!(s.doctor.fault_stats().injected_at(FaultSite::PlanStall), 1);
        s.doctor.breaker().on_outcome(0, false, false);
        s.doctor.breaker().on_outcome(0, false, false);
        assert_eq!(s.doctor.breaker().state(), BreakerState::Open);
        let before = s.doctor.fault_stats();
        let d = s.doctor.submit(req()).unwrap();
        assert_eq!(d.reason, FallbackReason::BreakerOpen);
        assert_eq!(
            s.doctor.fault_stats(),
            before,
            "a bypassed request must consult no fault site"
        );
    }

    #[test]
    fn judge_applies_budget_then_confidence_then_deadline() {
        use FallbackReason as R;
        // (planning µs, budget µs, floor rejected, remaining µs)
        let table = [
            ((100.0, Some(200.0), false, Some(1.0)), R::None),
            ((100.0, None, false, None), R::None),
            // Each check on its own.
            ((300.0, Some(200.0), false, None), R::PlanningTimeout),
            ((100.0, Some(200.0), true, None), R::LowConfidence),
            ((100.0, Some(200.0), false, Some(-5.0)), R::DeadlineExceeded),
            // Budget beats confidence, which beats deadline.
            ((300.0, Some(200.0), true, None), R::PlanningTimeout),
            ((300.0, Some(200.0), false, Some(-5.0)), R::PlanningTimeout),
            ((300.0, Some(200.0), true, Some(-5.0)), R::PlanningTimeout),
            ((100.0, None, true, Some(-5.0)), R::LowConfidence),
            // Spending exactly the budget is in time; nothing left of the
            // deadline is past it.
            ((200.0, Some(200.0), false, None), R::None),
            ((100.0, None, false, Some(0.0)), R::DeadlineExceeded),
        ];
        for (case, want) in table {
            let (planning_us, budget_us, low_confidence, remaining_us) = case;
            assert_eq!(
                judge(planning_us, budget_us, low_confidence, remaining_us),
                want,
                "{case:?}"
            );
        }
    }

    #[test]
    fn breaker_signal_maps_every_reason() {
        use FallbackReason as R;
        let table = [
            (R::None, Some(true)),
            (R::PlanningTimeout, Some(false)),
            (R::LowConfidence, None),
            (R::ExecTimeout, Some(false)),
            (R::ExecError, Some(false)),
            (R::BreakerOpen, None),
            (R::DeadlineExceeded, None),
        ];
        for (i, (reason, signal)) in table.into_iter().enumerate() {
            // One row per reason, in declaration order.
            assert_eq!(reason as usize, i);
            assert_eq!(reason.breaker_signal(), signal, "{reason:?}");
        }
    }
}
