//! Fault-layer transparency: attaching [`FaultPlan::none`] must be
//! invisible.
//!
//! The robustness layer's contract is that every fault hook is a single
//! branch on `None`/an inactive plan: a service built *with* a no-op fault
//! plan attached (to both the doctor and its executor) must produce
//! bit-identical outcomes to a service built without the fault layer at
//! all — same plan fingerprints, same latency bits, same fallback
//! reasons, same metrics counters and latency-percentile bits — across
//! every registered workload and request shape (priority classes,
//! generous deadlines).
//!
//! Wall-clock fields (`planning_us` and its percentiles) are the one
//! deliberate exclusion: they are nondeterministic in any build.

use foss_repro::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Pair {
    plain: PlanDoctor,
    nulled: PlanDoctor,
    queries: Vec<Query>,
}

/// A trained doctor over `name`; `with_null_plan` attaches
/// [`FaultPlan::none`] to both the service and a fresh serving executor.
/// Training is fully seeded, so the two doctors of a pair hold identical
/// snapshots and start from identical cache state.
fn build_doctor(name: &str, seed: u64, with_null_plan: bool) -> (PlanDoctor, Vec<Query>) {
    let spec = WorkloadSpec { seed, scale: 0.05 };
    let exp = Experiment::new(name, spec).unwrap();
    let mut adapter = FossAdapter::new(exp.foss(FossConfig {
        episodes_per_update: 6,
        seed,
        ..FossConfig::tiny()
    }));
    let train = &exp.workload.train;
    adapter.train_round(&train[..train.len().min(4)]).unwrap();
    let mut exec = CachingExecutor::new(
        exp.workload.db.clone(),
        *exp.workload.optimizer.cost_model(),
    );
    if with_null_plan {
        exec = exec.with_fault_plan(Arc::new(FaultPlan::none()));
    }
    let mut doctor = PlanDoctor::new(
        adapter.snapshot().as_ref().clone(),
        Arc::new(exec),
        ServiceConfig::default(),
    );
    if with_null_plan {
        doctor = doctor.with_fault_plan(Arc::new(FaultPlan::none()));
    }
    (doctor, exp.workload.all_queries())
}

/// One (plain, null-fault-plan) service pair per registered workload,
/// shared across proptest cases. Cases submit to both services of a pair
/// in lockstep, so their cache and metrics state evolve identically.
fn pairs() -> &'static Vec<Pair> {
    static PAIRS: OnceLock<Vec<Pair>> = OnceLock::new();
    PAIRS.get_or_init(|| {
        WORKLOAD_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let seed = 51 + i as u64;
                let (plain, queries) = build_doctor(name, seed, false);
                let (nulled, _) = build_doctor(name, seed, true);
                Pair {
                    plain,
                    nulled,
                    queries,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every observable, deterministic piece of a service outcome — the
    /// decision and the metrics deltas it causes — is bit-identical with
    /// and without an inactive fault layer.
    #[test]
    fn null_fault_plan_is_bit_transparent(
        wl in 0usize..16,
        qi in 0usize..256,
        low in 0u8..2,
        deadline in 0u8..2,
    ) {
        let (low_priority, with_deadline) = (low == 1, deadline == 1);
        let pair = &pairs()[wl % pairs().len()];
        let query = pair.queries[qi % pair.queries.len()].clone();
        let request = || {
            let mut r = QueryRequest::new(query.clone());
            if low_priority {
                r = r.with_priority(Priority::Low);
            }
            if with_deadline {
                // Generous (≈17 min): exercises the deadline plumbing
                // without ever expiring.
                r = r.with_deadline_us(1e9);
            }
            r
        };
        let a = pair.plain.submit(request()).unwrap();
        let b = pair.nulled.submit(request()).unwrap();
        prop_assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());
        prop_assert_eq!(a.latency.to_bits(), b.latency.to_bits());
        prop_assert_eq!(a.reason, b.reason);
        prop_assert_eq!(
            (a.fallback, a.selected_step, a.candidates, a.retries),
            (b.fallback, b.selected_step, b.candidates, b.retries)
        );

        let (ma, mb) = (pair.plain.metrics(), pair.nulled.metrics());
        prop_assert_eq!(ma.submitted, mb.submitted);
        prop_assert_eq!(ma.errors, mb.errors);
        prop_assert_eq!(ma.fallbacks, mb.fallbacks);
        prop_assert_eq!(ma.planning_timeouts, mb.planning_timeouts);
        prop_assert_eq!(ma.low_confidence, mb.low_confidence);
        prop_assert_eq!(ma.exec_timeouts, mb.exec_timeouts);
        prop_assert_eq!(ma.exec_errors, mb.exec_errors);
        prop_assert_eq!(ma.breaker_open_served, mb.breaker_open_served);
        prop_assert_eq!(ma.deadline_exceeded, mb.deadline_exceeded);
        prop_assert_eq!((ma.shed_low, ma.shed_high), (mb.shed_low, mb.shed_high));
        prop_assert_eq!(ma.retries, mb.retries);
        prop_assert_eq!(ma.breaker_state, mb.breaker_state);
        prop_assert_eq!(ma.breaker_transitions, mb.breaker_transitions);
        prop_assert_eq!(ma.fallback_rate.to_bits(), mb.fallback_rate.to_bits());
        prop_assert_eq!(ma.latency_p50.to_bits(), mb.latency_p50.to_bits());
        prop_assert_eq!(ma.latency_p95.to_bits(), mb.latency_p95.to_bits());
        prop_assert_eq!(ma.latency_p99.to_bits(), mb.latency_p99.to_bits());
        prop_assert_eq!(
            (ma.cache.executions, ma.cache.hits, ma.cache.entries),
            (mb.cache.executions, mb.cache.hits, mb.cache.entries)
        );
        // The inactive plan never fires, by construction.
        prop_assert_eq!(mb.faults_injected, 0);
        prop_assert_eq!(ma.faults_injected, 0, "no plan at all");
    }
}
