//! One served decision: [`PlannerSnapshot::decide`] picks the plan, and the
//! `PlanDoctor` service and the harness's `FossAdapter` (what Tables I and
//! II score) both serve exactly that plan, at every confidence floor.

use foss_repro::core::DEFAULT_MIN_CONFIDENCE;
use foss_repro::prelude::*;

#[test]
fn service_and_harness_serve_the_snapshot_decision_on_tpcdslite_tiny() {
    let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(7)).unwrap();
    let cfg = FossConfig {
        episodes_per_update: 6,
        seed: 7,
        ..FossConfig::tiny()
    };
    let mut adapter = FossAdapter::new(exp.foss(cfg));
    let train: Vec<_> = exp.workload.train.iter().take(4).cloned().collect();
    adapter.train_round(&train).unwrap(); // bootstrap
    let snapshot = adapter.snapshot().clone();
    let queries = exp.workload.all_queries();

    // Queries whose doctored plan the default floor takes away (17 of the
    // 114 at this seed, all with an AAM verdict of 0).
    let mut vetoed = 0;
    for floor in [0, 1, 2, usize::MAX] {
        let doctor = PlanDoctor::new(
            snapshot.as_ref().clone(),
            exp.executor.clone(),
            ServiceConfig {
                min_confidence: floor,
                ..ServiceConfig::default()
            },
        );
        for q in &queries {
            let expert = snapshot.expert_plan(q).unwrap();
            let decision = snapshot.decide(q, &expert, floor).unwrap();
            let served = doctor.submit(QueryRequest::new(q.clone())).unwrap();
            assert_eq!(
                decision.low_confidence,
                served.reason == FallbackReason::LowConfidence,
                "query {:?}, floor {floor}: service and snapshot disagree on the floor",
                q.id
            );
            if served.reason == FallbackReason::None {
                assert_eq!(
                    served.plan.fingerprint(),
                    decision.plan.fingerprint(),
                    "query {:?}, floor {floor}: service served another plan",
                    q.id
                );
            }
            if floor == DEFAULT_MIN_CONFIDENCE {
                assert_eq!(
                    adapter.plan(q).unwrap().fingerprint(),
                    decision.plan.fingerprint(),
                    "query {:?}: the harness scores another plan than the snapshot serves",
                    q.id
                );
                let raw = decision.inference.plan.fingerprint();
                if decision.low_confidence && raw != expert.fingerprint() {
                    vetoed += 1;
                }
            }
        }
    }
    assert!(
        vetoed > 0,
        "the default floor never took a plan away; the harness check is vacuous"
    );
}

#[test]
fn plan_doctor_serves_snapshot_plans_end_to_end() {
    let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(11)).unwrap();
    let cfg = FossConfig {
        episodes_per_update: 6,
        seed: 11,
        ..FossConfig::tiny()
    };
    let mut adapter = FossAdapter::new(exp.foss(cfg));
    let train: Vec<_> = exp.workload.train.iter().take(3).cloned().collect();
    adapter.train_round(&train).unwrap();

    let doctor = PlanDoctor::new(
        adapter.snapshot().as_ref().clone(),
        exp.executor.clone(),
        ServiceConfig::default(),
    );
    for q in exp.workload.test.iter().take(4) {
        let decision = doctor.submit(QueryRequest::new(q.clone())).unwrap();
        let expert = adapter.snapshot().expert_plan(q).unwrap();
        // Every fallback serves the expert plan. Short of a doctored plan
        // that blew its execution budget, the service serves exactly what
        // the harness scores, the floor's fallbacks included.
        if decision.fallback {
            assert_eq!(decision.plan.fingerprint(), expert.fingerprint());
        }
        if matches!(
            decision.reason,
            FallbackReason::None | FallbackReason::LowConfidence
        ) {
            assert_eq!(
                decision.plan.fingerprint(),
                adapter.plan(q).unwrap().fingerprint(),
                "service must serve exactly the snapshot's decision"
            );
        }
        assert!(decision.latency > 0.0);
    }
    let metrics = doctor.metrics();
    assert_eq!(metrics.submitted, 4);
    assert!(metrics.latency_p50 <= metrics.latency_p99);
}
