//! `plan-doctor` — the PlanDoctor service as a process, in three modes.
//!
//! ```text
//! plan-doctor [bench] --workload tpcdslite --scale 0.08 --threads 4 --queries 24
//! plan-doctor serve --workload tpcdslite --scale 0.08 --addr 127.0.0.1:7434 \
//!     [--snapshot planner.fsnp | --save-snapshot planner.fsnp]
//! plan-doctor load --addr 127.0.0.1:7434 --threads 4 --requests 64
//! ```
//!
//! * **bench** (default when the first argument is a `--flag`): train FOSS
//!   on the workload's train split, publish a snapshot into a
//!   [`foss_service::PlanDoctor`], hammer it from N worker threads
//!   in-process and print the metrics summary line.
//! * **serve**: the same bootstrap, then expose the doctor over a socket
//!   ([`foss_service::PlanServer`]: `POST /plan`, `GET /metrics`,
//!   `GET /healthz`, `POST /publish`). With `--snapshot <path>` the
//!   process is serving-only: it loads a trained
//!   [`foss_core::PlannerSnapshot`] instead of training. With
//!   `--save-snapshot <path>` it writes the trained snapshot for such a
//!   process to boot from.
//! * **load**: closed-loop load generator against a running `serve`
//!   process — N threads, one in-flight request each, each thread on one
//!   persistent connection — reporting QPS, p50/p95/p99 round-trip
//!   latency, shed counts and the fallback mix. The latencies are those of
//!   a request on a warm connection: connect, thread spawn and teardown are
//!   paid once per thread (N shows as `connections_accepted` in the
//!   server's `GET /metrics`), not once per request.
//!
//! Flag reference lives in [`foss_bench::cli`]. Robustness flags
//! (`--faults`, `--priority-mix`, `--deadline-us`) follow the
//! [`foss_common::faults`] grammar and the service's priority semantics:
//! shed requests are counted, not fatal.

use foss_common::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use foss_bench::cli::{self, BenchArgs, Command, LoadArgs, ServeArgs, SharedArgs};
use foss_bench::load::{fallback_mix_line, summary_line, LoadTally};
use foss_common::{FaultPlan, FossError};
use foss_core::{FossConfig, PlannerSnapshot};
use foss_harness::{Experiment, FossAdapter};
use foss_service::{
    PlanClient, PlanDoctor, PlanOutcome, PlanRequest, PlanServer, Priority, QueryRequest,
    ServiceConfig,
};
use foss_workloads::WorkloadSpec;

fn main() {
    match cli::parse_or_exit() {
        Command::Bench(args) => run_bench(args),
        Command::Serve(args) => run_serve(args),
        Command::Load(args) => run_load(args),
    }
}

/// Exit 2 with a readable message (registry typos, bad snapshots, bind
/// failures — operator mistakes, not bugs).
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("plan-doctor: {msg}");
    std::process::exit(2);
}

/// The fault plan in effect: `--faults` beats `FOSS_FAULTS`, neither means
/// none. An invalid spec exits with the parser's readable message (which
/// lists the valid site names) rather than a panic backtrace.
fn fault_plan(shared: &SharedArgs) -> Option<Arc<FaultPlan>> {
    let parsed = match &shared.faults {
        Some(spec) => FaultPlan::parse(spec, 42).map(Some),
        None => FaultPlan::from_env(),
    };
    match parsed {
        Ok(plan) => plan.map(Arc::new),
        Err(msg) => die(msg),
    }
}

/// Build the experiment for the shared flags (registry lookup: a typo'd
/// `--workload` exits with the valid-name list instead of a backtrace).
fn experiment(shared: &SharedArgs) -> Experiment {
    let spec = WorkloadSpec {
        seed: 42,
        scale: shared.scale,
    };
    Experiment::new(&shared.workload, spec).unwrap_or_else(|e| die(e))
}

/// Train FOSS on the experiment's train split for `rounds` rounds and
/// return the resulting snapshot.
fn train_snapshot(exp: &Experiment, shared: &SharedArgs) -> PlannerSnapshot {
    let mut adapter = FossAdapter::new(exp.foss(FossConfig {
        episodes_per_update: 12,
        seed: 42,
        ..FossConfig::tiny()
    }));
    use foss_baselines::LearnedOptimizer;
    for round in 0..shared.rounds.max(1) {
        adapter
            .train_round(&exp.workload.train)
            .unwrap_or_else(|e| panic!("training round {round} failed: {e}"));
        if let Some(report) = adapter.last_report() {
            println!(
                "plan-doctor: training round {round}: buffer={} plans, aam acc {:.2} | {}",
                report.buffer_plans, report.aam_accuracy, report.phases
            );
        }
    }
    adapter.snapshot().as_ref().clone()
}

/// Wrap a snapshot in a service front end configured by the shared flags.
fn doctor_for(exp: &Experiment, shared: &SharedArgs, snapshot: PlannerSnapshot) -> PlanDoctor {
    let mut doctor = PlanDoctor::new(
        snapshot,
        exp.executor.clone(),
        ServiceConfig {
            max_in_flight: shared.max_in_flight,
            planning_budget_us: shared.budget_us,
            ..ServiceConfig::default()
        },
    );
    if let Some(faults) = fault_plan(shared) {
        println!("plan-doctor: chaos mode, fault plan attached");
        doctor = doctor.with_fault_plan(faults);
    }
    doctor
}

fn run_bench(args: BenchArgs) {
    let exp = experiment(&args.shared);
    println!(
        "plan-doctor: workload={} scale={} train={} test={} kernels={}",
        args.shared.workload,
        args.shared.scale,
        exp.workload.train.len(),
        exp.workload.test.len(),
        foss_nn::kernel_build()
    );

    let snapshot = train_snapshot(&exp, &args.shared);
    let doctor = Arc::new(doctor_for(&exp, &args.shared, snapshot));

    // N worker threads submit the query pool round-robin until `queries`
    // total submissions have completed.
    let pool: Vec<_> = exp.workload.all_queries();
    assert!(!pool.is_empty(), "workload has no queries");
    let per_thread = args.queries.div_ceil(args.threads);
    std::thread::scope(|scope| {
        for t in 0..args.threads {
            let doctor = doctor.clone();
            let pool = &pool;
            let args = &args;
            scope.spawn(move || {
                for k in 0..per_thread {
                    let idx = t * per_thread + k;
                    if idx >= args.queries {
                        break;
                    }
                    let query = pool[idx % pool.len()].clone();
                    let mut req = QueryRequest::new(query);
                    // Deterministic priority assignment: submission index
                    // modulo 100 against the mix percentage, so the same
                    // flags always tag the same requests low.
                    if ((idx % 100) as f64) < args.priority_mix * 100.0 {
                        req = req.with_priority(Priority::Low);
                    }
                    if let Some(d) = args.deadline_us {
                        req = req.with_deadline_us(d);
                    }
                    match doctor.submit(req) {
                        Ok(d) => {
                            if d.fallback {
                                println!("  worker {t}: query {idx} fell back ({:?})", d.reason);
                            }
                        }
                        // Shedding is the service working as designed under
                        // overload, not a harness failure.
                        Err(e @ FossError::Overloaded { .. }) => {
                            println!("  worker {t}: query {idx} shed ({e})");
                        }
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            });
        }
    });

    println!("{}", doctor.metrics().summary_line());
}

fn run_serve(args: ServeArgs) {
    let exp = experiment(&args.shared);
    let snapshot = match &args.snapshot {
        // Serving-only boot: the expert optimizer is a pure function of
        // (workload, seed, scale), so the workload build above rebuilt it
        // and the snapshot file supplies every learned weight.
        Some(path) => {
            PlannerSnapshot::load(path, exp.workload.optimizer.clone()).unwrap_or_else(|e| die(e))
        }
        None => train_snapshot(&exp, &args.shared),
    };
    if let Some(path) = &args.save_snapshot {
        snapshot.save(path).unwrap_or_else(|e| die(e));
        println!("plan-doctor: snapshot saved to {path}");
    }
    let doctor = Arc::new(doctor_for(&exp, &args.shared, snapshot));
    let pool = exp.workload.all_queries();
    let server = PlanServer::start(doctor, pool.clone(), &args.addr).unwrap_or_else(|e| die(e));
    println!(
        "plan-doctor: serving workload={} ({} queries) on http://{}",
        args.shared.workload,
        pool.len(),
        server.addr()
    );
    // Serve until killed; each connection has a thread of its own.
    loop {
        std::thread::park();
    }
}

fn run_load(args: LoadArgs) {
    let client = PlanClient::connect(&args.addr).unwrap_or_else(|e| die(e));
    // Await server readiness: `serve` may still be training when the load
    // generator starts (the CI smoke starts both back-to-back).
    let mut pool_len = None;
    for _ in 0..300 {
        if let Ok(health) = client.healthz() {
            pool_len = health.get("queries").and_then(|q| q.as_usize());
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let pool_len = pool_len
        .filter(|n| *n > 0)
        .unwrap_or_else(|| die(format!("no healthy server at {} after 60s", args.addr)));
    println!(
        "plan-doctor load: target=http://{} pool={pool_len} threads={} requests={}",
        args.addr, args.threads, args.requests
    );

    // Closed loop: each thread keeps exactly one request in flight,
    // drawing the next global index until the budget is spent.
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut total = LoadTally::default();
    let tallies: Vec<LoadTally> = std::thread::scope(|scope| {
        (0..args.threads)
            .map(|_| {
                let next = &next;
                let args = &args;
                scope.spawn(move || {
                    let mut tally = LoadTally::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= args.requests {
                            return tally;
                        }
                        let mut req = PlanRequest::for_index(idx % pool_len);
                        let low = ((idx % 100) as f64) < args.priority_mix * 100.0;
                        if low {
                            req.priority = Some(Priority::Low);
                        }
                        req.deadline_us = args.deadline_us;
                        req.planning_budget_us = args.budget_us;
                        let sent = Instant::now();
                        match client.plan(&req) {
                            Ok(PlanOutcome::Decision(reply)) => {
                                tally.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                                tally.ok += 1;
                                tally.bump_reason(&reply.reason);
                            }
                            Ok(PlanOutcome::Rejected(rej)) if rej.code == "overloaded" => {
                                if low {
                                    tally.shed_low += 1;
                                } else {
                                    tally.shed_high += 1;
                                }
                            }
                            Ok(PlanOutcome::Rejected(_)) => tally.rejected += 1,
                            Err(_) => tally.transport_errors += 1,
                        }
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    for tally in tallies {
        total.merge(tally);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    // A full-shed run has an empty latency reservoir; the report prints
    // `n/a` percentiles (never a fake 0) while keeping counts/QPS exact.
    println!("{}", summary_line(args.requests, elapsed_s, &total));
    println!("{}", fallback_mix_line(&mut total));
    if total.ok == 0 {
        die("no request succeeded");
    }
}
