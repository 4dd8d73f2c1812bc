//! Cross-crate integration tests: the full pipeline from workload
//! generation through expert planning, execution, FOSS training and
//! inference, plus semantic correctness guarantees.

use foss_repro::prelude::*;
use std::sync::Arc;

fn tiny_workload() -> Workload {
    tpcdslite::build(WorkloadSpec {
        seed: 9,
        scale: 0.05,
    })
    .unwrap()
}

#[test]
fn every_plan_variant_preserves_query_semantics() {
    // The single most important invariant of the whole system: no matter
    // how a plan is steered (hints, method restrictions, leading prefixes),
    // its result cardinality must equal the expert plan's.
    let wl = tiny_workload();
    let exec = CachingExecutor::new(wl.db.clone(), *wl.optimizer.cost_model());
    for q in wl.train.iter().take(6) {
        let expert = wl.optimizer.optimize(q).unwrap();
        let truth = exec.execute(q, &expert, None).unwrap().rows;
        // Hint round trip.
        let icp = expert.extract_icp().unwrap();
        let hinted = wl.optimizer.optimize_with_hint(q, &icp).unwrap();
        assert_eq!(exec.execute(q, &hinted, None).unwrap().rows, truth);
        // Every single-method restriction.
        for m in foss_repro::optimizer::ALL_JOIN_METHODS {
            let plan = wl.optimizer.optimize_with_methods(q, &[m]).unwrap();
            assert_eq!(
                exec.execute(q, &plan, None).unwrap().rows,
                truth,
                "method {m}"
            );
        }
        // A leading-prefix hint.
        let lead = vec![icp.order[icp.order.len() - 1]];
        let plan = wl.optimizer.optimize_with_leading(q, &lead).unwrap();
        assert_eq!(exec.execute(q, &plan, None).unwrap().rows, truth);
    }
}

#[test]
fn foss_end_to_end_on_real_workload() {
    let wl = tiny_workload();
    let executor = Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let cfg = FossConfig {
        episodes_per_update: 10,
        ..FossConfig::tiny()
    };
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        executor.clone(),
        wl.max_relations,
        wl.table_rows(),
        cfg,
    );
    let train: Vec<Query> = wl.train.iter().take(6).cloned().collect();
    let reports = foss.train(&train, 1).unwrap();
    assert_eq!(reports.len(), 2, "bootstrap + 1 iteration");
    assert!(reports[1].buffer_plans >= reports[0].buffer_plans);

    // Inference on unseen queries must produce semantically correct plans.
    for q in wl.test.iter().take(3) {
        let plan = foss.optimize(q).unwrap();
        let expert = wl.optimizer.optimize(q).unwrap();
        let a = executor.execute(q, &plan, None).unwrap();
        let b = executor.execute(q, &expert, None).unwrap();
        assert_eq!(a.rows, b.rows, "FOSS changed query semantics on {}", q.id);
    }
}

#[test]
fn foss_never_catastrophically_regresses_with_selector() {
    // The plan-doctor guarantee the paper highlights: because the original
    // plan is always among the candidates, FOSS's selected plan can only be
    // much worse than the expert when the AAM actively mispredicts; with a
    // bootstrap-trained AAM, total latency stays within a small factor.
    let wl = tiny_workload();
    let executor = Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let cfg = FossConfig {
        episodes_per_update: 12,
        ..FossConfig::tiny()
    };
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        executor.clone(),
        wl.max_relations,
        wl.table_rows(),
        cfg,
    );
    let train: Vec<Query> = wl.train.iter().take(8).cloned().collect();
    foss.train(&train, 1).unwrap();
    let mut learned = 0.0;
    let mut expert = 0.0;
    for q in &train {
        let plan = foss.optimize(q).unwrap();
        let e = wl.optimizer.optimize(q).unwrap();
        learned += executor.execute(q, &plan, None).unwrap().latency;
        expert += executor.execute(q, &e, None).unwrap().latency;
    }
    assert!(
        learned < expert * 3.0,
        "FOSS total latency {learned:.0} vs expert {expert:.0}"
    );
}

#[test]
fn baselines_share_the_trait_and_plan_correctly() {
    let wl = tiny_workload();
    let exec = Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let encoder = foss_repro::core::encoding::PlanEncoder::new(wl.table_count(), wl.table_rows());
    let mut methods: Vec<Box<dyn LearnedOptimizer>> = vec![
        Box::new(PostgresBaseline::new(wl.optimizer.clone())),
        Box::new(Bao::new(
            wl.optimizer.clone(),
            exec.clone(),
            encoder.clone(),
            1,
        )),
        Box::new(BalsaLite::new(
            wl.optimizer.clone(),
            exec.clone(),
            encoder.clone(),
            2,
        )),
        Box::new(LogerLite::new(
            wl.optimizer.clone(),
            exec.clone(),
            encoder.clone(),
            3,
        )),
        Box::new(HybridQo::new(
            wl.optimizer.clone(),
            exec.clone(),
            encoder.clone(),
            4,
        )),
    ];
    let train: Vec<Query> = wl.train.iter().take(4).cloned().collect();
    for m in methods.iter_mut() {
        m.train_round(&train).unwrap();
        for q in &train {
            let plan = m.plan(q).unwrap();
            let expert = wl.optimizer.optimize(q).unwrap();
            let a = exec.execute(q, &plan, None).unwrap().rows;
            let b = exec.execute(q, &expert, None).unwrap().rows;
            assert_eq!(a, b, "{} broke semantics", m.name());
        }
    }
}

#[test]
fn joblite_expert_leaves_doctoring_headroom() {
    // The reproduction's premise: on the skewed JOB-lite data, *some*
    // expert plans can be improved by a one-step doctored ICP. Note the
    // honest scope (see README.md, *Executor*): our deterministic executor shares
    // the expert's cost constants and always pushes filters down, so the
    // expert sits much closer to optimal here than PostgreSQL does on real
    // IMDb — headroom exists but is far smaller than the paper's 6×.
    use foss_repro::core::actions::ActionSpace;
    let wl = joblite::build(WorkloadSpec {
        seed: 4,
        scale: 0.06,
    })
    .unwrap();
    let exec = CachingExecutor::new(wl.db.clone(), *wl.optimizer.cost_model());
    let mut improvable = 0;
    let mut checked = 0;
    for q in wl.train.iter().filter(|q| q.relation_count() >= 3).take(20) {
        let expert = wl.optimizer.optimize(q).unwrap();
        let orig = exec.execute(q, &expert, None).unwrap().latency;
        let icp = expert.extract_icp().unwrap();
        checked += 1;
        let space = ActionSpace::new(q.relation_count().max(2));
        let mask = space.mask(q, &icp, None);
        for (a, &allowed) in mask.iter().enumerate() {
            if !allowed {
                continue;
            }
            let mut cand = icp.clone();
            space.apply(space.decode(a), &mut cand).unwrap();
            let plan = wl.optimizer.optimize_with_hint(q, &cand).unwrap();
            if let Ok(o) = exec.execute(q, &plan, Some(orig * 2.0)) {
                if o.latency < orig * 0.9 {
                    improvable += 1;
                    break;
                }
            }
        }
    }
    assert!(
        improvable >= 1,
        "no query of {checked} has ≥10% one-step headroom — substrate lost its premise"
    );
}

/// A valid one-relation query gives the doctor nothing to do — no swap, no
/// override — and used to take the planning thread down with it. So does a
/// query wider than the action space, which has no action in it. Inference
/// through the trainer and the snapshot, and the serving front end, must hand
/// back the expert plan instead.
#[test]
fn one_relation_query_is_served_the_expert_plan() {
    let wl = skewstress::build(WorkloadSpec {
        seed: 42,
        scale: 0.05,
    })
    .unwrap();
    let schema = wl.db.schema();
    let mut qb = QueryBuilder::new(QueryId::new(100_000), 99);
    qb.relation(wl.train[0].relations[0].table, "only");
    let single = qb.build(schema).unwrap();
    assert_eq!(single.relation_count(), 1);
    // The action space is sized one relation short of the widest query.
    let max_relations = wl.max_relations - 1;
    let wide = wl
        .train
        .iter()
        .find(|q| q.relation_count() > max_relations)
        .unwrap()
        .clone();

    let executor = Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        executor.clone(),
        max_relations,
        wl.table_rows(),
        FossConfig {
            episodes_per_update: 6,
            ..FossConfig::tiny()
        },
    );
    let train: Vec<Query> = wl
        .train
        .iter()
        .filter(|q| q.relation_count() <= max_relations)
        .take(4)
        .cloned()
        .collect();
    foss.train(&train, 1).unwrap();
    let snapshot = foss.snapshot();
    let doctor = PlanDoctor::new(snapshot.clone(), executor, ServiceConfig::default());

    for query in [single, wide] {
        let expert = wl.optimizer.optimize(&query).unwrap().fingerprint();
        for inference in [
            foss.optimize_detailed(&query).unwrap(),
            snapshot.optimize_detailed(&query).unwrap(),
        ] {
            assert_eq!(inference.selected_step, 0);
            assert_eq!(inference.plan.fingerprint(), expert);
        }
        let decision = doctor.submit(QueryRequest::new(query)).unwrap();
        assert_eq!(decision.selected_step, 0);
        assert_eq!(decision.plan.fingerprint(), expert);
        assert!(decision.latency > 0.0);
    }
}
