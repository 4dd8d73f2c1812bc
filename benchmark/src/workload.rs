//! The four benchmark workloads and the traffic each one sends.
//!
//! A workload is one pipeline — build the data, train a doctor, round-trip
//! its snapshot, serve it over the socket — with the weight on a different
//! stage. The names are fixed; later issues refer to them.

use foss_repro::common::QueryId;
use foss_repro::core::FossConfig;
use foss_repro::query::Query;
use foss_repro::workloads::{joblite, skewstress, Template, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Closed-loop client threads driving the server in the timed phase. Callers
/// of a plan doctor wait for their plan, so each keeps one request in flight.
pub const CLIENTS: usize = 2;

/// Seed of the data set, of training and of the fresh instances' constants.
/// Fixed: `--seed` drives only the order of the requests. Execution cost per
/// instance is so heavy-tailed (the costliest 1 % of instances carry 68–94 %
/// of a pool's work) that pools drawn with different seeds differ by 30–70 %
/// in total work, which would make every throughput figure a property of
/// the seed instead of the code.
pub const DATA_SEED: u64 = 42;

/// Fresh template instances get ids from here up, clear of the ids the
/// workload's own train/test queries use.
const FRESH_ID_BASE: usize = 1_000_000;

/// What the clients request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// The workload's own train+test queries, `passes` times over, each pass
    /// in a seed-shuffled order. Timed after one untimed pass has filled the
    /// caches: every expert plan is memoised and every execution is a hit.
    Recurring { passes: usize },
    /// `instances` template instances the snapshot has never seen (fresh
    /// ids, fresh constants), each requested once in a seed-shuffled order:
    /// nothing is memoised. Instances whose expert plan costs more than
    /// `max_expert_work` work units are left out. The costliest instances run
    /// for seconds and materialise a gigabyte (about 16 bytes per work unit):
    /// one of them pins a client for most of a repetition, and whether two
    /// of them overlap decides the process's peak memory.
    Fresh {
        instances: usize,
        max_expert_work: f64,
    },
}

impl Traffic {
    /// Whether the caches are filled by an untimed pass before timing starts.
    pub fn warms_up(self) -> bool {
        matches!(self, Traffic::Recurring { .. })
    }

    /// The work-unit cap above which a pool query is never requested.
    pub fn max_expert_work(self) -> Option<f64> {
        match self {
            Traffic::Recurring { .. } => None,
            Traffic::Fresh {
                max_expert_work, ..
            } => Some(max_expert_work),
        }
    }
}

/// How the doctor is trained before it is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `FossConfig::tiny()` shape with 100 simulated episodes per update —
    /// what `plan-doctor serve` trains, for long enough that it changes some
    /// plans and the doctored-execution path is exercised at all.
    Serving,
    /// `FossConfig::default()`: the paper's model shape and 900 simulated
    /// episodes per update.
    Paper,
}

impl Model {
    pub fn config(self) -> FossConfig {
        let cfg = match self {
            Model::Serving => FossConfig {
                episodes_per_update: 100,
                ..FossConfig::tiny()
            },
            Model::Paper => FossConfig::default(),
        };
        FossConfig {
            seed: DATA_SEED,
            ..cfg
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Registry name of the data set (`foss_workloads::WORKLOAD_NAMES`).
    pub dataset: &'static str,
    pub model: Model,
    /// `Foss::train_iteration` calls after `Foss::bootstrap`.
    pub iterations: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub traffic: Traffic,
    /// Share of `--seconds` spent serving (the rest of `train`'s measured
    /// time is the training itself).
    pub serve_share: f64,
    /// Requests walked through the layers in the traced phase, from the
    /// start of the sequence. The fresh workloads trace the whole sequence:
    /// which costly instances a prefix holds depends on the seed's order.
    pub traced_requests: usize,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve_hot",
        why: "113 recurring joblite queries: plans memoised, executions cached, so inference and transport do the work and executor/optimizer none",
        dataset: "joblite",
        model: Model::Serving,
        iterations: 5,
        setups: 3,
        traffic: Traffic::Recurring { passes: 20 },
        serve_share: 1.0,
        traced_requests: 2000,
    },
    WorkloadDef {
        name: "serve_fresh",
        why: "never-seen joblite template instances, each once: every request pays DP planning, inference and a cold execution; id-keyed caches miss",
        dataset: "joblite",
        model: Model::Serving,
        iterations: 5,
        setups: 3,
        // Light executions only (3e5 units is about 1 ms and 5 MB).
        traffic: Traffic::Fresh {
            instances: 4000,
            max_expert_work: 3e5,
        },
        serve_share: 1.0,
        traced_requests: 4000,
    },
    WorkloadDef {
        name: "serve_skew",
        why: "never-seen skewstress instances, each once: Zipf join keys make cold execution heavy-tailed, so the executor sets throughput and tail",
        dataset: "skewstress",
        model: Model::Serving,
        iterations: 5,
        setups: 3,
        // The heavy tail stays in (3e7 units is about 0.1 s and 450 MB).
        traffic: Traffic::Fresh {
            instances: 2000,
            max_expert_work: 3e7,
        },
        serve_share: 1.0,
        traced_requests: 2000,
    },
    WorkloadDef {
        name: "train",
        why: "the learning loop at paper scale (bootstrap + 6 iterations of 900 simulated episodes), then a short hot serve of that larger model",
        dataset: "joblite",
        model: Model::Paper,
        iterations: 6,
        setups: 1,
        traffic: Traffic::Recurring { passes: 10 },
        serve_share: 0.4,
        traced_requests: 1000,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn templates(dataset: &str) -> Vec<Template> {
    match dataset {
        "joblite" => joblite::templates(),
        "skewstress" => skewstress::templates(),
        other => panic!("no template source for data set `{other}`"),
    }
}

/// The queries the server holds and the order the clients ask for them.
#[derive(Debug, Clone, PartialEq)]
pub struct Requests {
    /// The serving pool; `POST /plan` bodies index into it.
    pub pool: Vec<Query>,
    /// Pool indices in request order — one repetition of the timed phase.
    pub sequence: Vec<usize>,
}

/// Generate the pool and, from `seed` alone, the order it is requested in.
pub fn requests(def: &WorkloadDef, workload: &Workload, seed: u64) -> Requests {
    let mut rng = StdRng::seed_from_u64(seed);
    match def.traffic {
        Traffic::Recurring { passes } => {
            let pool = workload.all_queries();
            let mut sequence = Vec::with_capacity(pool.len() * passes);
            let mut order: Vec<usize> = (0..pool.len()).collect();
            for _ in 0..passes {
                order.shuffle(&mut rng);
                sequence.extend_from_slice(&order);
            }
            Requests { pool, sequence }
        }
        Traffic::Fresh { instances, .. } => {
            // Round-robin over the templates, as the workload's own builder
            // does.
            let templates = templates(def.dataset);
            let schema = workload.db.schema();
            let mut constants = StdRng::seed_from_u64(DATA_SEED);
            let pool = (0..instances)
                .map(|i| {
                    templates[i % templates.len()]
                        .instantiate(schema, QueryId::new(FRESH_ID_BASE + i), &mut constants)
                        .expect("a workload's own templates instantiate over its schema")
                })
                .collect();
            let mut sequence: Vec<usize> = (0..instances).collect();
            sequence.shuffle(&mut rng);
            Requests { pool, sequence }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_repro::workloads::WorkloadSpec;

    fn tiny(dataset: &str) -> Workload {
        Workload::by_name(dataset, WorkloadSpec::tiny(DATA_SEED)).unwrap()
    }

    #[test]
    fn fresh_requests_repeat_per_seed_and_differ_across_seeds() {
        let wl = tiny("skewstress");
        let def = find("serve_skew").unwrap();
        let a = requests(def, &wl, 7);
        assert_eq!(a, requests(def, &wl, 7), "same seed, same inputs");
        let b = requests(def, &wl, 8);
        assert_eq!(a.pool, b.pool, "the instances do not move with the seed");
        assert_ne!(a.sequence, b.sequence, "the order does");
        let mut each_once = a.sequence.clone();
        each_once.sort_unstable();
        assert_eq!(each_once, (0..a.pool.len()).collect::<Vec<_>>());
        // Fresh ids: none collides with the workload's own queries.
        let own: std::collections::BTreeSet<_> = wl.all_queries().iter().map(|q| q.id).collect();
        assert!(a.pool.iter().all(|q| !own.contains(&q.id)));
        let ids: std::collections::BTreeSet<_> = a.pool.iter().map(|q| q.id).collect();
        assert_eq!(ids.len(), a.pool.len(), "each instance has its own id");
    }

    #[test]
    fn recurring_sequences_are_seeded_permutations_of_the_pool() {
        let wl = tiny("joblite");
        let def = find("serve_hot").unwrap();
        let a = requests(def, &wl, 1);
        assert_eq!(a, requests(def, &wl, 1));
        let b = requests(def, &wl, 2);
        assert_eq!(a.pool, b.pool, "the pool is the workload's own queries");
        assert_ne!(a.sequence, b.sequence, "the order comes from the seed");
        let Traffic::Recurring { passes } = def.traffic else {
            panic!("serve_hot is recurring")
        };
        for pass in a.sequence.chunks(a.pool.len()) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..a.pool.len()).collect::<Vec<_>>());
        }
        assert_eq!(a.sequence.len(), passes * a.pool.len());
    }

    #[test]
    fn every_workload_names_a_known_data_set() {
        for w in WORKLOADS {
            assert!(foss_repro::workloads::WORKLOAD_NAMES.contains(&w.dataset));
            assert!(w.setups >= 1 && w.traced_requests > 0);
            assert!(w.serve_share > 0.0 && w.serve_share <= 1.0);
        }
    }
}
