//! A query is its content: serving state keys on [`Query::fingerprint`],
//! never on the caller's `QueryId`. Two queries under one id each get their
//! own plan and latency, and one query under two ids is planned and
//! executed once.

use std::sync::{Arc, OnceLock};

use foss_repro::executor::ExecOutcome;
use foss_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `skewstress` at scale 0.1 and a doctor trained on the first train
/// instance of templates 1–4 (template 2 has 3 relations, template 1 has 5).
struct Trained {
    exp: Experiment,
    snapshot: PlannerSnapshot,
    train: Vec<Query>,
}

fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let exp = Experiment::new("skewstress", WorkloadSpec::tiny(7)).unwrap();
        let train: Vec<Query> = (1..=4)
            .map(|t| {
                let first = exp.workload.train.iter().find(|q| q.template == t);
                first.unwrap().clone()
            })
            .collect();
        let cfg = FossConfig {
            episodes_per_update: 6,
            seed: 7,
            ..FossConfig::tiny()
        };
        let mut adapter = FossAdapter::new(exp.foss(cfg));
        adapter.train_round(&train).unwrap(); // bootstrap
        let snapshot = adapter.snapshot().as_ref().clone();
        Trained {
            exp,
            snapshot,
            train,
        }
    })
}

impl Trained {
    /// The `k`-th `skewstress` template (template number `k + 1`) drawn
    /// with constants from `seed`, under `id`.
    fn instance(&self, k: usize, seed: u64, id: QueryId) -> Query {
        let schema = self.exp.workload.db.schema();
        skewstress::templates()[k]
            .instantiate(schema, id, &mut StdRng::seed_from_u64(seed))
            .unwrap()
    }

    /// A doctor over the trained snapshot with an executor of its own.
    fn doctor(&self, cfg: ServiceConfig) -> PlanDoctor {
        let wl = &self.exp.workload;
        let executor = CachingExecutor::new(wl.db.clone(), *wl.optimizer.cost_model());
        PlanDoctor::new(self.snapshot.clone(), Arc::new(executor), cfg)
    }

    /// `plan` run on `query` by the uncached executor.
    fn direct(&self, query: &Query, plan: &PhysicalPlan) -> ExecOutcome {
        let wl = &self.exp.workload;
        Executor::new(&wl.db, *wl.optimizer.cost_model())
            .execute(query, plan, None)
            .unwrap()
    }
}

#[test]
fn two_instances_under_one_id_each_read_their_own_latency() {
    let t = trained();
    let id = QueryId::new(5);
    let first = t.instance(0, 1, id);
    let plan = t.exp.workload.optimizer.optimize(&first).unwrap();
    let own = t.direct(&first, &plan).latency;
    // Another instance of the template whose latency under the same plan
    // differs.
    let second = (2..34)
        .map(|seed| t.instance(0, seed, id))
        .find(|q| t.direct(q, &plan).latency != own)
        .expect("some instance of template 1 runs another latency");
    let cache = CachingExecutor::new(
        t.exp.workload.db.clone(),
        *t.exp.workload.optimizer.cost_model(),
    );
    for q in [&first, &second] {
        let cached = cache.execute(q, &plan, None).unwrap().latency;
        assert_eq!(
            cached.to_bits(),
            t.direct(q, &plan).latency.to_bits(),
            "{q}: the cache answered another instance's latency"
        );
    }
    assert_eq!(cache.stats().executions, 2);
}

#[test]
fn a_wider_query_under_a_training_id_is_planned_over_its_own_relations() {
    let t = trained();
    let narrow = t.train.iter().find(|q| q.template == 2).unwrap();
    let mut wide = t
        .exp
        .workload
        .test
        .iter()
        .find(|q| q.template == 1)
        .unwrap()
        .clone();
    assert!(wide.relation_count() > narrow.relation_count());
    wide.id = narrow.id;
    let doctor = t.doctor(ServiceConfig::default());
    let decision = doctor.submit(QueryRequest::new(wide.clone())).unwrap();
    let mut order = decision.plan.extract_icp().unwrap().order;
    order.sort_unstable();
    assert_eq!(order, (0..wide.relation_count()).collect::<Vec<_>>());
    let expert = t.exp.workload.optimizer.optimize(&wide).unwrap();
    assert_eq!(
        t.direct(&wide, &decision.plan).rows,
        t.direct(&wide, &expert).rows
    );
}

#[test]
fn one_query_under_two_ids_is_executed_once_per_plan() {
    let t = trained();
    let doctor = t.doctor(ServiceConfig::default());
    let query = t.exp.workload.test[0].clone();
    let first = doctor.submit(QueryRequest::new(query.clone())).unwrap();
    let stats = doctor.metrics().cache;
    assert!(stats.executions >= 1);
    assert_eq!(stats.executions, stats.entries as u64, "one run per plan");
    let mut renamed = query;
    renamed.id = QueryId::new(4_000_000);
    let second = doctor.submit(QueryRequest::new(renamed)).unwrap();
    let again = doctor.metrics().cache;
    assert_eq!(
        again.executions, stats.executions,
        "re-executed under a new id"
    );
    assert_eq!(again.entries, stats.entries);
    assert_eq!(second.plan.fingerprint(), first.plan.fingerprint());
    assert_eq!(second.latency.to_bits(), first.latency.to_bits());
    assert_eq!(second.reason, first.reason);
    assert_eq!(second.selected_step, first.selected_step);
}

/// Cases of the proptest below.
const CASES: u32 = 16;

/// One doctor that serves every proptest case, so each case lands on the
/// state earlier cases left under the shared id.
fn shared_doctor() -> &'static PlanDoctor {
    static DOCTOR: OnceLock<PlanDoctor> = OnceLock::new();
    DOCTOR.get_or_init(|| trained().doctor(identity_cfg()))
}

/// The default service, with a breaker that needs more samples than the
/// proptest has cases: a fallback must come from the query, not from
/// earlier cases' outcomes.
fn identity_cfg() -> ServiceConfig {
    let window = CASES as usize + 1;
    ServiceConfig {
        breaker: BreakerConfig {
            window,
            min_samples: window,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Template instances that all carry the id of one training query are
    /// served exactly what a fresh doctor serves each of them alone.
    #[test]
    fn instances_sharing_an_id_are_served_as_if_alone(k in 0usize..10, seed in 0u64..1_000_000) {
        let t = trained();
        let query = t.instance(k, seed, t.train[0].id);
        let shared = shared_doctor().submit(QueryRequest::new(query.clone())).unwrap();
        let alone = t.doctor(identity_cfg()).submit(QueryRequest::new(query.clone())).unwrap();
        prop_assert_eq!(shared.plan.fingerprint(), alone.plan.fingerprint());
        prop_assert_eq!(shared.latency.to_bits(), alone.latency.to_bits());
        prop_assert_eq!(shared.reason, alone.reason);
    }
}
