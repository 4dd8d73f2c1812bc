//! Set-up: everything `plan-doctor serve` does before its first request,
//! made explicit and timed step by step.

use std::sync::Arc;
use std::time::Instant;

use foss_repro::common::Result;
use foss_repro::core::{PlannerSnapshot, TrainReport};
use foss_repro::executor::CachingExecutor;
use foss_repro::harness::{Experiment, FossAdapter};
use foss_repro::service::{PlanDoctor, PlanServer, ServiceConfig};
use foss_repro::workloads::WorkloadSpec;

use crate::workload::{self, Requests, WorkloadDef, DATA_SEED};

/// Wall time of each set-up step.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Data generation, indexes, statistics, the workload's own queries.
    pub build_s: f64,
    /// Drawing the request pool from the seed.
    pub pool_gen_s: f64,
    pub bootstrap_s: f64,
    pub iteration_s: Vec<f64>,
    pub snapshot_encode_s: f64,
    pub snapshot_decode_s: f64,
    /// Everything, from the first byte of data to a server answering
    /// `/healthz`.
    pub total_s: f64,
}

/// A trained doctor ready to be served.
pub struct Ready {
    pub exp: Experiment,
    /// The trainer, kept for its buffer and AAM (traced phase) and as the
    /// `LearnedOptimizer` that `evaluate_on` scores.
    pub adapter: FossAdapter,
    /// The snapshot after `to_bytes` → `from_bytes`: what a serving-only
    /// process would load.
    pub snapshot: PlannerSnapshot,
    pub snapshot_bytes: usize,
    pub requests: Requests,
    pub times: SetupTimes,
    /// Report of the last training call.
    pub last_report: TrainReport,
}

impl Ready {
    /// A fresh doctor over the served snapshot and the executor training
    /// ran on — what `plan-doctor serve` ships.
    pub fn doctor(&self) -> Arc<PlanDoctor> {
        self.doctor_over(self.exp.executor.clone())
    }

    /// A fresh doctor over the served snapshot and `executor`.
    pub fn doctor_over(&self, executor: Arc<CachingExecutor>) -> Arc<PlanDoctor> {
        Arc::new(PlanDoctor::new(
            self.snapshot.clone(),
            executor,
            ServiceConfig::default(),
        ))
    }

    /// A new, empty-cached executor over the workload's data.
    pub fn private_executor(&self) -> Arc<CachingExecutor> {
        Arc::new(CachingExecutor::new(
            self.exp.workload.db.clone(),
            *self.snapshot.optimizer().cost_model(),
        ))
    }

    /// Serve `doctor` over the request pool on an ephemeral loopback port.
    pub fn serve(&self, doctor: Arc<PlanDoctor>) -> Result<PlanServer> {
        PlanServer::start(doctor, self.requests.pool.clone(), "127.0.0.1:0")
    }
}

/// Build, train, snapshot and prove the server comes up.
pub fn set_up(def: &WorkloadDef, seed: u64) -> Result<Ready> {
    let start = Instant::now();
    let exp = Experiment::new(
        def.dataset,
        WorkloadSpec {
            seed: DATA_SEED,
            scale: 1.0,
        },
    )?;
    let mut times = SetupTimes {
        build_s: start.elapsed().as_secs_f64(),
        ..SetupTimes::default()
    };

    let t = Instant::now();
    let requests = workload::requests(def, &exp.workload, seed);
    times.pool_gen_s = t.elapsed().as_secs_f64();

    let mut foss = exp.foss(def.model.config());
    let train = &exp.workload.train;
    let t = Instant::now();
    let mut last_report = foss.bootstrap(train, 1)?;
    times.bootstrap_s = t.elapsed().as_secs_f64();
    for iteration in 1..=def.iterations {
        let t = Instant::now();
        last_report = foss.train_iteration(train, iteration)?;
        times.iteration_s.push(t.elapsed().as_secs_f64());
    }
    let adapter = FossAdapter::new(foss);

    let t = Instant::now();
    let bytes = adapter.snapshot().to_bytes();
    times.snapshot_encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snapshot = PlannerSnapshot::from_bytes(&bytes, exp.workload.optimizer.clone())?;
    times.snapshot_decode_s = t.elapsed().as_secs_f64();

    let mut ready = Ready {
        exp,
        adapter,
        snapshot,
        snapshot_bytes: bytes.len(),
        requests,
        times,
        last_report,
    };
    // Readiness as a client sees it: the server answers `/healthz`.
    let server = ready.serve(ready.doctor())?;
    server.client().healthz()?;
    server.shutdown();
    ready.times.total_s = start.elapsed().as_secs_f64();
    Ok(ready)
}
