//! Differential property tests for the executor engines: chunk-at-a-time
//! execution must be indistinguishable from the scalar reference — same
//! result tuples in the same order, bit-identical work-unit latency, and
//! identical timeout accounting — across all five workloads (including the
//! correlated-data DSB-lite and the heavy-tail skew-stress, whose hash
//! joins hammer a single bucket), for expert plans and for randomly
//! perturbed (often catastrophic) plans alike. Each workload is built twice:
//! small, and at scale 0.3 where the fact tables span several chunks, so
//! chunk boundaries and mid-chunk timeouts are exercised too.
//!
//! Count mode (`Executor::execute` on the chunked engine, and
//! `FusedPipeline::execute`) keeps no result and only the live slots of each
//! intermediate, which nothing but memory shows — so a second, exhaustive
//! test holds it to the materialising paths on rows, latency bits and abort
//! points.

use foss_repro::executor::{ExecMode, ExecOutcome, Executor, FusedPipeline};
use foss_repro::optimizer::{PlanNode, ALL_JOIN_METHODS};
use foss_repro::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Two instances of each registered workload — scale 0.05, then scale 0.3 —
/// shared across cases so the generated cases don't each pay the
/// workload-construction cost.
fn workloads() -> &'static Vec<Workload> {
    static WL: OnceLock<Vec<Workload>> = OnceLock::new();
    WL.get_or_init(|| {
        [(11, 0.05), (21, 0.3)]
            .iter()
            .flat_map(|&(seed, scale)| {
                WORKLOAD_NAMES.iter().enumerate().map(move |(i, name)| {
                    let spec = WorkloadSpec {
                        seed: seed + i as u64,
                        scale,
                    };
                    Workload::by_name(name, spec).unwrap()
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked == scalar on the expert plan — unbounded, and under a third
    /// of its latency, where both must abort at the same point — and on a
    /// random ICP mutation of it (rotated join order, re-rolled join
    /// methods), run under a budget so catastrophic mutations compare their
    /// timeout accounting instead of running to completion.
    #[test]
    fn chunked_execution_equals_scalar(
        wl_idx in 0usize..2 * WORKLOAD_NAMES.len(),
        q_pick in 0usize..10_000,
        rot in 0usize..8,
        mcode in 0usize..19_683, // 3^9: a method draw per possible join
    ) {
        let wl = &workloads()[wl_idx];
        let split = if q_pick % 2 == 0 { &wl.train } else { &wl.test };
        let query = &split[(q_pick / 2) % split.len()];
        let cost = *wl.optimizer.cost_model();
        let chunked = Executor::with_mode(&wl.db, cost, ExecMode::Chunked);
        let scalar = Executor::with_mode(&wl.db, cost, ExecMode::Scalar);

        // Expert plan, unbounded: full result sets must match exactly.
        let expert = wl.optimizer.optimize(query).unwrap();
        let (co, cr) = chunked.execute_rows(query, &expert, None).unwrap();
        let (so, sr) = scalar.execute_rows(query, &expert, None).unwrap();
        prop_assert_eq!(co, so);
        prop_assert_eq!(cr.rels, sr.rels);
        prop_assert_eq!(cr.data, sr.data);

        // Expert plan, a third of its latency: identical abort accounting.
        let tight = Some(co.latency / 3.0);
        match (
            chunked.execute_rows(query, &expert, tight),
            scalar.execute_rows(query, &expert, tight),
        ) {
            (
                Err(FossError::Timeout { spent: cs, budget: cb }),
                Err(FossError::Timeout { spent: ss, budget: sb }),
            ) => prop_assert_eq!((cs, cb), (ss, sb)),
            (c, s) => {
                return Err(TestCaseError::fail(format!(
                    "a third of the true latency must time out both engines: \
                     chunked={c:?} scalar={s:?}"
                )));
            }
        }

        // Perturbed plan: rotate the join order, re-roll every method.
        let base = expert.extract_icp().unwrap();
        let n = base.order.len();
        let mut order = base.order.clone();
        order.rotate_left(rot % n);
        let mut methods = Vec::with_capacity(n.saturating_sub(1));
        let mut code = mcode;
        for _ in 0..n.saturating_sub(1) {
            methods.push(ALL_JOIN_METHODS[code % 3]);
            code /= 3;
        }
        let icp = Icp::new(order, methods).unwrap();
        let plan = wl.optimizer.optimize_with_hint(query, &icp).unwrap();
        let budget = Some(co.latency * 25.0);
        match (
            chunked.execute_rows(query, &plan, budget),
            scalar.execute_rows(query, &plan, budget),
        ) {
            (Ok((po, pr)), Ok((qo, qr))) => {
                prop_assert_eq!(po, qo);
                prop_assert_eq!(pr.rels, qr.rels);
                prop_assert_eq!(pr.data, qr.data);
            }
            (
                Err(FossError::Timeout { spent: cs, budget: cb }),
                Err(FossError::Timeout { spent: ss, budget: sb }),
            ) => {
                prop_assert_eq!(cs, ss);
                prop_assert_eq!(cb, sb);
            }
            (c, s) => {
                return Err(TestCaseError::fail(format!(
                    "engines diverged on perturbed plan: chunked={c:?} scalar={s:?}"
                )));
            }
        }
    }
}

/// What an execution is compared on: rows and latency bits, or the abort
/// point.
fn verdict(r: Result<ExecOutcome>) -> String {
    match r {
        Ok(out) => format!(
            "rows={} latency_bits={:#x}",
            out.rows,
            out.latency.to_bits()
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// Which count-mode paths the plans of [`count_mode_equals_materialised_execution`]
/// took at the root join (a connected query never has a cross join *there*;
/// `cross` counts plans with one below the root, whose narrowed output the
/// joins above consume).
#[derive(Default, Debug)]
struct RootCoverage {
    hash: usize,
    merge: usize,
    nest_loop: usize,
    index_nl_filtered: usize,
    index_nl_unfiltered: usize,
    multi_edge: usize,
    cross: usize,
    fused: usize,
    timeouts: usize,
}

impl RootCoverage {
    fn record(&mut self, query: &Query, plan: &PhysicalPlan) {
        let mut node = &plan.root;
        while let PlanNode::Join { left, edges, .. } = node {
            if edges.is_empty() {
                self.cross += 1;
                break;
            }
            node = left;
        }
        let PlanNode::Join {
            method,
            right,
            edges,
            index_nl,
            ..
        } = &plan.root
        else {
            return;
        };
        if edges.len() > 1 {
            self.multi_edge += 1;
        }
        if *index_nl {
            let PlanNode::Scan { relation, .. } = **right else {
                return;
            };
            if query.relations[relation].predicates.is_empty() {
                self.index_nl_unfiltered += 1;
            } else {
                self.index_nl_filtered += 1;
            }
        } else {
            match method {
                JoinMethod::Hash => self.hash += 1,
                JoinMethod::Merge => self.merge += 1,
                JoinMethod::NestLoop => self.nest_loop += 1,
            }
        }
    }
}

/// Count mode == materialising execution, everywhere it can differ: for all
/// five workloads, the expert plan and rotated-order plans with every join
/// method forced at the root (which also yields multi-edge joins, cross joins
/// below the root and index nested loops over filtered and unfiltered inners),
/// the chunked `execute`, the chunked `execute_rows`, the scalar reference and
/// — where the shape compiles — both fused modes agree on rows and latency
/// bits, and under budgets of 0.1 … 0.9 of the full latency abort at the same
/// `Timeout { spent, budget }`.
#[test]
fn count_mode_equals_materialised_execution() {
    let mut seen = RootCoverage::default();
    for wl in &workloads()[..WORKLOAD_NAMES.len()] {
        let cost = *wl.optimizer.cost_model();
        let chunked = Executor::with_mode(&wl.db, cost, ExecMode::Chunked);
        let scalar = Executor::with_mode(&wl.db, cost, ExecMode::Scalar);
        for (qi, query) in wl.test.iter().chain(wl.train.iter().take(12)).enumerate() {
            let expert = wl.optimizer.optimize(query).unwrap();
            let expert_latency = chunked.execute(query, &expert, None).unwrap().latency;
            let base = expert.extract_icp().unwrap();
            let n = base.order.len();
            let mut plans = vec![expert];
            for (mi, &root) in ALL_JOIN_METHODS.iter().enumerate() {
                let mut order = base.order.clone();
                order.rotate_left((qi + mi) % n);
                let mut methods: Vec<JoinMethod> = (0..n.saturating_sub(1))
                    .map(|j| ALL_JOIN_METHODS[(qi + mi + j) % 3])
                    .collect();
                if let Some(last) = methods.last_mut() {
                    *last = root;
                }
                let icp = Icp::new(order, methods).unwrap();
                plans.push(wl.optimizer.optimize_with_hint(query, &icp).unwrap());
            }
            for plan in &plans {
                seen.record(query, plan);
                let fused = FusedPipeline::compile(query, plan);
                seen.fused += usize::from(fused.is_some());
                // Catastrophic perturbations compare their abort point under
                // a cap instead of running to completion.
                let cap = expert_latency * 25.0;
                let full = chunked
                    .execute_rows(query, plan, Some(cap))
                    .map(|(out, _)| out);
                let budgets: Vec<f64> = match &full {
                    Ok(out) => (1..=9).map(|k| out.latency * f64::from(k) / 10.0).collect(),
                    Err(_) => Vec::new(),
                };
                seen.timeouts += usize::from(full.is_err());
                for budget in std::iter::once(cap).chain(budgets) {
                    // Built only when an assertion fails.
                    let label = || {
                        format!(
                            "{} q{:?} budget {budget}:\n{}",
                            wl.name,
                            query.id,
                            plan.explain()
                        )
                    };
                    let reference = verdict(scalar.execute(query, plan, Some(budget)));
                    let rows = chunked
                        .execute_rows(query, plan, Some(budget))
                        .map(|(out, _)| out);
                    assert_eq!(
                        verdict(rows),
                        reference,
                        "execute_rows vs scalar: {}",
                        label()
                    );
                    let count = chunked.execute(query, plan, Some(budget));
                    assert_eq!(
                        verdict(count),
                        reference,
                        "count mode vs scalar: {}",
                        label()
                    );
                    if let Some(fused) = &fused {
                        let count = fused.execute(&wl.db, cost, query, Some(budget));
                        assert_eq!(
                            verdict(count),
                            reference,
                            "fused count vs scalar: {}",
                            label()
                        );
                        let rows = fused
                            .execute_rows(&wl.db, cost, query, Some(budget))
                            .map(|(out, _)| out);
                        assert_eq!(
                            verdict(rows),
                            reference,
                            "fused rows vs scalar: {}",
                            label()
                        );
                    }
                }
            }
        }
    }
    // Every count-mode root path ran, or the test proved less than it says.
    for (what, n) in [
        ("hash root", seen.hash),
        ("merge root", seen.merge),
        ("nested-loop root", seen.nest_loop),
        (
            "index-NL root with inner predicates",
            seen.index_nl_filtered,
        ),
        (
            "index-NL root without inner predicates",
            seen.index_nl_unfiltered,
        ),
        ("multi-edge root", seen.multi_edge),
        ("cross join below the root", seen.cross),
        ("fused pipelines", seen.fused),
        ("capped (timed-out) plans", seen.timeouts),
    ] {
        assert!(n > 0, "no plan exercised: {what} ({seen:?})");
    }
}
