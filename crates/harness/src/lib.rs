//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§VI) on the synthetic substrates, from three runs of the
//! `repro` binary (`foss-bench`), each printing every artefact it yields.
//!
//! | Paper artefact | Derived from | `repro` run |
//! |---|---|---|
//! | Table I (WRL/GMRL/runtime, 5 workloads × 6 methods) | [`table1::run`] | `table1` |
//! | Fig. 4 (relative speedups) | Table I's final evaluations | `table1` |
//! | Fig. 5 (training curves) | Table I's test probe after every round | `table1` |
//! | Fig. 6 (optimisation-time box plots) | Table I's `joblite` opt times | `table1` |
//! | Table II (design-choice ablations) | [`ablation::run`] | `table2` |
//! | Fig. 7 (step distribution vs maxsteps) | [`ablation::run`] | `table2` |
//! | Fig. 9 (GMRL curves per configuration) | [`ablation::run`] | `table2` |
//! | Fig. 8 (known-best-plan savings ranking) | [`best_plans::run`], 3 seeds | `fig8` |
//!
//! Every run trains the same [`roster`] to the same horizon
//! ([`RunConfig::rounds`]) and scores it with one loop, [`evaluate_on`].
//!
//! **Unit convention**: execution latency is deterministic executor work
//! units, which we equate to microseconds when combining with measured
//! wall-clock optimisation time in WRL (see README.md, *Executor*).
//!
//! **Snapshot-based planning**: since the serving redesign, every runner
//! evaluates FOSS through read-only [`foss_core::PlannerSnapshot`]s — the
//! [`FossAdapter`] refreshes its snapshot after each training round and
//! [`LearnedOptimizer::plan`] is `&self` for all methods, so evaluation
//! exercises exactly the code path the `PlanDoctor` service serves.

pub mod ablation;
pub mod best_plans;
pub mod table1;

use std::sync::Arc;
use std::time::Instant;

use foss_baselines::{BalsaLite, Bao, HybridQo, LearnedOptimizer, LogerLite, PostgresBaseline};
use foss_common::{FossError, Result};
use foss_core::encoding::PlanEncoder;
use foss_core::{Foss, FossConfig, PlannerSnapshot, TrainReport};
use foss_executor::CachingExecutor;
use foss_query::Query;
use foss_workloads::{
    geometric_mean_relevant_latency, workload_relevant_latency, QueryOutcome, Workload,
    WorkloadSpec,
};

/// Hard cap on how much worse than the expert an evaluated plan may run
/// (bounds catastrophic Balsa plans exactly like the paper's TLE handling).
pub const EVAL_TIMEOUT_FACTOR: f64 = 10.0;

/// Knobs bounding experiment cost.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed + scale.
    pub spec: WorkloadSpec,
    /// Training rounds of every baseline; FOSS trains one more
    /// ([`RunConfig::foss_rounds`]).
    pub rounds: usize,
    /// Simulated episodes per FOSS iteration.
    pub foss_episodes: usize,
}

impl RunConfig {
    /// A configuration small enough for CI smoke runs.
    pub fn smoke() -> Self {
        Self {
            spec: WorkloadSpec {
                seed: 42,
                scale: 0.08,
            },
            rounds: 1,
            foss_episodes: 12,
        }
    }

    /// Training rounds of FOSS: its first round is the bootstrap, so it
    /// trains `rounds` iterations after it.
    pub fn foss_rounds(&self) -> usize {
        self.rounds + 1
    }
}

/// FOSS's configuration in every run (the ablation varies it from here).
pub fn foss_config(episodes: usize, seed: u64) -> FossConfig {
    FossConfig {
        episodes_per_update: episodes,
        seed,
        ..FossConfig::tiny()
    }
}

/// One method of the [`roster`] and the rounds it trains.
pub struct Method {
    /// The optimizer.
    pub optimizer: Box<dyn LearnedOptimizer>,
    /// Training rounds before it is evaluated.
    pub rounds: usize,
}

/// Table I's methods, PostgreSQL first and FOSS last, each seeded from
/// `seed` with its own salt and given its training horizon.
pub fn roster(exp: &Experiment, cfg: &RunConfig, seed: u64) -> Vec<Method> {
    let opt = &exp.workload.optimizer;
    let exec = &exp.executor;
    let encoder = exp.encoder();
    let baseline = |optimizer: Box<dyn LearnedOptimizer>| Method {
        optimizer,
        rounds: cfg.rounds,
    };
    vec![
        baseline(Box::new(PostgresBaseline::new(opt.clone()))),
        baseline(Box::new(Bao::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0xBA0,
        ))),
        baseline(Box::new(BalsaLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0xBA15A,
        ))),
        baseline(Box::new(LogerLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0x106E5,
        ))),
        baseline(Box::new(HybridQo::new(
            opt.clone(),
            exec.clone(),
            encoder,
            seed ^ 0x4B1D,
        ))),
        Method {
            optimizer: Box::new(FossAdapter::new(
                exp.foss(foss_config(cfg.foss_episodes, seed)),
            )),
            rounds: cfg.foss_rounds(),
        },
    ]
}

/// A workload plus the shared executor every method measures against.
pub struct Experiment {
    /// The benchmark.
    pub workload: Workload,
    /// Shared caching executor (all methods see identical latencies).
    pub executor: Arc<CachingExecutor>,
}

impl Experiment {
    /// Materialise a benchmark by registry name (any of
    /// [`foss_workloads::WORKLOAD_NAMES`]) over the default chunk-at-a-time
    /// executor.
    pub fn new(name: &str, spec: WorkloadSpec) -> Result<Self> {
        let workload = Workload::by_name(name, spec)?;
        let executor = Arc::new(CachingExecutor::new(
            workload.db.clone(),
            *workload.optimizer.cost_model(),
        ));
        Ok(Self { workload, executor })
    }

    /// A plan encoder matching this workload's schema.
    pub fn encoder(&self) -> PlanEncoder {
        PlanEncoder::new(self.workload.table_count(), self.workload.table_rows())
    }

    /// A FOSS instance wired to this experiment.
    pub fn foss(&self, cfg: FossConfig) -> Foss {
        Foss::new(
            self.workload.optimizer.clone(),
            self.executor.clone(),
            self.workload.max_relations,
            self.workload.table_rows(),
            cfg,
        )
    }
}

/// Adapter so [`Foss`] can be driven through the common baseline trait.
///
/// Mirrors the serving architecture in miniature: training mutates the
/// wrapped [`Foss`], and after every round the adapter publishes a fresh
/// read-only [`PlannerSnapshot`] that [`LearnedOptimizer::plan`] serves
/// from — the same snapshot type the `PlanDoctor` service front end holds.
pub struct FossAdapter {
    /// The wrapped system.
    pub foss: Foss,
    snapshot: Arc<PlannerSnapshot>,
    iteration: usize,
    last_report: Option<TrainReport>,
}

impl FossAdapter {
    /// Wrap a FOSS instance (publishing an initial, untrained snapshot).
    pub fn new(foss: Foss) -> Self {
        let snapshot = Arc::new(foss.snapshot());
        Self {
            foss,
            snapshot,
            iteration: 0,
            last_report: None,
        }
    }

    /// The snapshot currently served by [`LearnedOptimizer::plan`]
    /// (refreshed after every training round).
    pub fn snapshot(&self) -> &Arc<PlannerSnapshot> {
        &self.snapshot
    }

    /// Diagnostics of the latest training round (the trait's `train_round`
    /// returns none), per-phase wall times included.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }
}

impl LearnedOptimizer for FossAdapter {
    fn name(&self) -> &'static str {
        "FOSS"
    }

    fn train_round(&mut self, queries: &[Query]) -> Result<()> {
        self.last_report = Some(if self.iteration == 0 {
            self.foss.bootstrap(queries, 1)?
        } else {
            self.foss.train_iteration(queries, self.iteration)?
        });
        self.iteration += 1;
        self.snapshot = Arc::new(self.foss.snapshot());
        Ok(())
    }

    fn plan(&self, query: &Query) -> Result<foss_optimizer::PhysicalPlan> {
        self.snapshot.optimize(query)
    }
}

/// Per-split evaluation of one method.
#[derive(Debug, Clone, Default)]
pub struct SplitEval {
    /// Workload relevant latency.
    pub wrl: f64,
    /// Geometric mean relevant latency.
    pub gmrl: f64,
    /// Total learned runtime (latency + optimisation, work units ≡ µs → s).
    pub runtime_s: f64,
    /// Per-query measurements, in query order — feed Figs. 6 and 8.
    pub outcomes: Vec<QueryOutcome>,
}

/// Evaluate `method` on `queries`, comparing against the expert.
///
/// Takes `&dyn` — evaluation only plans (read-only since the serving
/// redesign) and never trains.
pub fn evaluate_on(
    exp: &Experiment,
    method: &dyn LearnedOptimizer,
    queries: &[Query],
) -> Result<SplitEval> {
    let mut outcomes = Vec::with_capacity(queries.len());
    for query in queries {
        // Expert measurement.
        let e0 = Instant::now();
        let expert_plan = exp.workload.optimizer.optimize(query)?;
        let expert_opt_us = e0.elapsed().as_secs_f64() * 1e6;
        let expert = exp.executor.execute(query, &expert_plan, None)?;
        // Learned method measurement.
        let t0 = Instant::now();
        let plan = method.plan(query)?;
        let opt_us = t0.elapsed().as_secs_f64() * 1e6;
        let budget = expert.latency * EVAL_TIMEOUT_FACTOR;
        let learned_latency = match exp.executor.execute(query, &plan, Some(budget)) {
            Ok(out) => out.latency,
            Err(FossError::Timeout { .. }) => budget,
            Err(e) => return Err(e),
        };
        outcomes.push(QueryOutcome {
            learned_latency,
            expert_latency: expert.latency,
            learned_opt_time: opt_us,
            expert_opt_time: expert_opt_us,
        });
    }
    let runtime_s = outcomes
        .iter()
        .map(|o| (o.learned_latency + o.learned_opt_time) / 1e6)
        .sum();
    Ok(SplitEval {
        wrl: workload_relevant_latency(&outcomes),
        gmrl: geometric_mean_relevant_latency(&outcomes),
        runtime_s,
        outcomes,
    })
}

/// [`evaluate_on`] between training rounds: restores the RNG `plan` draws
/// from ([`LearnedOptimizer::plan_rng`]), so the method trains on exactly
/// as if it had not been measured.
pub fn probe(
    exp: &Experiment,
    method: &dyn LearnedOptimizer,
    queries: &[Query],
) -> Result<SplitEval> {
    let saved = method.plan_rng().map(|rng| rng.lock().clone());
    let eval = evaluate_on(exp, method, queries);
    if let (Some(rng), Some(saved)) = (method.plan_rng(), saved) {
        *rng.lock() = saved;
    }
    eval
}

/// Simple percentile over a sample (linear interpolation), shared with the
/// serving metrics via [`foss_common::percentile`]. Returns `0.0` for an
/// empty sample set — a defined value instead of the panic this used to be,
/// so figure runners and metrics reporters tolerate empty splits.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    foss_common::percentile(samples, p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_baselines::PostgresBaseline;

    #[test]
    fn experiment_builds_and_expert_scores_unity() {
        let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(3)).unwrap();
        let pg = PostgresBaseline::new(exp.workload.optimizer.clone());
        let queries: Vec<_> = exp.workload.test.iter().take(4).cloned().collect();
        let eval = evaluate_on(&exp, &pg, &queries).unwrap();
        // The expert against itself: latency ratios are exactly 1; WRL only
        // differs through measured planning wall time.
        assert!((eval.gmrl - 1.0).abs() < 1e-9, "gmrl={}", eval.gmrl);
        assert!(eval.wrl > 0.5 && eval.wrl < 2.0, "wrl={}", eval.wrl);
        assert_eq!(eval.outcomes.len(), 4);
    }

    #[test]
    fn probe_between_rounds_leaves_training_unchanged() {
        // Balsa draws random candidates while it plans; a probe must not
        // shift what it draws in the next training round.
        let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(6)).unwrap();
        let train: Vec<_> = exp.workload.train.iter().take(4).cloned().collect();
        let test: Vec<_> = exp.workload.test.iter().take(3).cloned().collect();
        let cfg = RunConfig::smoke();
        let balsa = || roster(&exp, &cfg, 7).swap_remove(2).optimizer;
        let (mut probed, mut unprobed) = (balsa(), balsa());
        assert_eq!(probed.name(), "Balsa");
        for _ in 0..2 {
            probed.train_round(&train).unwrap();
            probe(&exp, &*probed, &test).unwrap();
            unprobed.train_round(&train).unwrap();
        }
        let a = evaluate_on(&exp, &*probed, &test).unwrap();
        let b = evaluate_on(&exp, &*unprobed, &test).unwrap();
        assert_eq!(a.gmrl.to_bits(), b.gmrl.to_bits());
    }

    #[test]
    fn unknown_workload_rejected_with_name_listing() {
        let err = match Experiment::new("nope", WorkloadSpec::tiny(1)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("bogus workload name should not build"),
        };
        // The registry error teaches the valid names.
        assert!(
            err.contains("dsblite") && err.contains("skewstress"),
            "{err}"
        );
    }

    #[test]
    fn new_workloads_build_experiments() {
        for name in ["dsblite", "skewstress"] {
            let exp = Experiment::new(name, WorkloadSpec::tiny(4)).unwrap();
            assert_eq!(exp.workload.name, name);
            assert!(!exp.workload.test.is_empty());
        }
    }

    #[test]
    fn percentile_interpolates() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((percentile(&s, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_empty_samples_is_zero() {
        // Used to panic; the serving metrics registry needs a defined value
        // when no queries have completed yet.
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn foss_adapter_trains_and_plans() {
        let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(5)).unwrap();
        let cfg = FossConfig {
            episodes_per_update: 4,
            ..FossConfig::tiny()
        };
        let mut foss = FossAdapter::new(exp.foss(cfg));
        let queries: Vec<_> = exp.workload.train.iter().take(3).cloned().collect();
        foss.train_round(&queries).unwrap(); // bootstrap
        foss.train_round(&queries).unwrap(); // one iteration
        let eval = evaluate_on(&exp, &foss, &queries[..2]).unwrap();
        assert!(eval.gmrl > 0.0);
    }

    #[test]
    fn foss_adapter_plans_match_trainer_inference_exactly() {
        // The redesign's regression guard: the snapshot the adapter serves
        // must produce bit-identical plans to direct trainer inference.
        let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(9)).unwrap();
        let cfg = FossConfig {
            episodes_per_update: 4,
            ..FossConfig::tiny()
        };
        let mut foss = FossAdapter::new(exp.foss(cfg));
        let queries: Vec<_> = exp.workload.train.iter().take(2).cloned().collect();
        foss.train_round(&queries).unwrap();
        for q in exp.workload.test.iter().take(3) {
            let served = foss.plan(q).unwrap();
            let direct = foss.foss.optimize(q).unwrap();
            assert_eq!(served.fingerprint(), direct.fingerprint());
        }
    }
}
