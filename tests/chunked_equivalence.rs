//! Differential property tests for the executor engines: chunk-at-a-time
//! execution must be indistinguishable from the scalar reference — same
//! result tuples in the same order, bit-identical work-unit latency, and
//! identical timeout accounting — across all five workloads (including the
//! correlated-data DSB-lite and the heavy-tail skew-stress, whose hash
//! joins hammer a single bucket), for expert plans and for randomly
//! perturbed (often catastrophic) plans alike. Each workload is built twice:
//! small, and at scale 0.3 where the fact tables span several chunks, so
//! chunk boundaries and mid-chunk timeouts are exercised too.

use foss_repro::executor::{ExecMode, Executor};
use foss_repro::optimizer::ALL_JOIN_METHODS;
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
