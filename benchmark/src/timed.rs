//! The timed phase: the end-to-end metrics, with tracing off.

use std::time::Instant;

use foss_repro::common::{FossError, Result};
use foss_repro::harness::evaluate_on;

use crate::load::{self, Answer, Pass};
use crate::metrics::{MetricSet, END_TO_END};
use crate::oracle::Oracle;
use crate::setup::{self, Ready};
use crate::stats;
use crate::workload::{WorkloadDef, CLIENTS};

/// What one phase hands back to `main`.
pub struct PhaseResult {
    pub metrics: MetricSet,
    /// Requests sent over the wire, warm-up passes included.
    pub attempted: u64,
    /// Transport errors + rejections + replies that fail the output check.
    pub failed: u64,
}

/// Peak resident set of this process so far (MB), from `VmHWM`.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| FossError::Transient(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| FossError::Transient("no VmHWM line in /proc/self/status".into()))
}

/// One repetition: cold caches, a fresh doctor and server, one pass over the
/// request sequence. Returns the untimed warm-up pass (if the workload has
/// one) and the timed pass.
fn repetition(def: &WorkloadDef, ready: &Ready) -> Result<(Option<Pass>, Pass)> {
    ready.exp.executor.clear();
    let server = ready.serve(ready.doctor())?;
    let client = server.client();
    let warm_up = def.traffic.warms_up().then(|| {
        let once: Vec<usize> = (0..ready.requests.pool.len()).collect();
        load::run_pass(client, &once, CLIENTS)
    });
    let timed = load::run_pass(client, &ready.requests.sequence, CLIENTS);
    server.shutdown();
    Ok((warm_up, timed))
}

/// Count the samples of `pass` that are not a reply equal to the oracle's,
/// reporting the first few.
fn failures(pass: &Pass, oracle: &Oracle, shown: &mut usize) -> u64 {
    let mut failed = 0;
    for sample in &pass.samples {
        let verdict = match &sample.answer {
            Answer::Reply(reply) => oracle.expect(sample.query).check(reply),
            Answer::Rejected(why) => Err(format!("rejected: {why}")),
            Answer::Transport(why) => Err(format!("transport: {why}")),
        };
        if let Err(why) = verdict {
            failed += 1;
            if *shown < 5 {
                *shown += 1;
                eprintln!("benchmark: pool query {} failed: {why}", sample.query);
            }
        }
    }
    failed
}

pub fn run(def: &WorkloadDef, seed: u64, seconds: f64) -> Result<PhaseResult> {
    // Several complete set-ups, so that `setup_s` is a median, each followed
    // by its share of the serving window, so that the wire figures do not
    // hang on the memory layout one set-up happened to get.
    let serve_for = seconds * def.serve_share / def.setups as f64;
    let mut setups = Vec::with_capacity(def.setups);
    let mut bootstraps = Vec::with_capacity(def.setups);
    let mut iterations = Vec::new();
    let mut warm_ups = Vec::new();
    let mut passes = Vec::new();
    let mut served_s = 0.0;
    let mut peak_rss = None;
    let mut oracle: Option<Oracle> = None;
    let mut ready: Option<Ready> = None;
    for _ in 0..def.setups {
        drop(ready.take()); // free the previous set-up before the next is built
        let r = ready.insert(setup::set_up(def, seed)?);
        setups.push(r.times.total_s);
        bootstraps.push(r.times.bootstrap_s);
        iterations.extend_from_slice(&r.times.iteration_s);
        // The oracle is a function of snapshot and pool, and training is
        // deterministic: the first set-up's oracle holds for all of them.
        if oracle.is_none() {
            oracle = Some(Oracle::price(def, r)?);
        }
        let priced = oracle.as_ref().expect("priced just above");
        priced.drop_unpriced(&mut r.requests);

        // Serve: repetitions of one fixed request sequence until this
        // set-up's share of the time is up.
        let started = Instant::now();
        let mut repetitions = 0;
        while repetitions == 0 || started.elapsed().as_secs_f64() < serve_for {
            let (warm_up, timed) = repetition(def, r)?;
            warm_ups.extend(warm_up);
            passes.push(timed);
            repetitions += 1;
        }
        served_s += started.elapsed().as_secs_f64();
        // After the first set-up only: what one deployment — train once,
        // serve — peaks at. Later set-ups are repeats for the sake of the
        // medians, and how the allocator reuses what the earlier ones freed
        // moved the mark by up to 50 % from run to run.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    let ((ready, oracle), peak_rss) = ready
        .zip(oracle)
        .zip(peak_rss)
        .expect("every workload sets up at least once");
    println!(
        "{}: {} set-up(s), pool {} queries, {} requests per repetition, {CLIENTS} closed-loop clients",
        def.name,
        def.setups,
        ready.requests.pool.len(),
        ready.requests.sequence.len(),
    );
    let eval = evaluate_on(&ready.exp, &ready.adapter, &ready.exp.workload.test)?;

    // Output check, outside every timed window.
    let mut shown = 0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in warm_ups.iter().chain(&passes) {
        attempted += pass.samples.len() as u64;
        failed += failures(pass, &oracle, &mut shown);
    }

    // Each figure is taken per repetition and reported as the median over
    // the repetitions, so one disturbed repetition moves none of them.
    let per_repetition = |f: &dyn Fn(&Pass) -> Option<f64>| -> Result<f64> {
        let values: Vec<f64> = passes.iter().filter_map(f).collect();
        stats::median(&values).ok_or_else(|| FossError::Transient("no request was answered".into()))
    };
    let all_latencies: Vec<f64> = passes.iter().flat_map(Pass::latencies_us).collect();
    // Over one repetition's sequence, so it does not depend on how many
    // repetitions fit into the run; summed in pool order, so it does not
    // depend on the order of the requests either.
    let mut times_requested = vec![0usize; oracle.pool_len()];
    for &q in &ready.requests.sequence {
        times_requested[q] += 1;
    }
    let (mut expert_work, mut served_work, mut doctored) = (0.0, 0.0, 0usize);
    for (q, &times) in times_requested.iter().enumerate().filter(|(_, &t)| t > 0) {
        let e = oracle.expect(q);
        expert_work += times as f64 * e.expert_latency;
        served_work += times as f64 * e.served_latency();
        doctored += times * usize::from(e.doctored());
    }

    let mut m = MetricSet::new(END_TO_END);
    m.put(
        "setup_s",
        stats::median(&setups).expect("at least one set-up"),
    );
    m.put("wire_qps", per_repetition(&|p| Some(p.qps()))?);
    m.put(
        "wire_p50_us",
        per_repetition(&|p| stats::percentile(&p.latencies_us(), 50.0))?,
    );
    m.put(
        "wire_p99_us",
        per_repetition(&|p| stats::percentile(&p.latencies_us(), 99.0))?,
    );
    m.put("plan_speedup", expert_work / served_work);
    m.put("peak_rss_mb", peak_rss);
    m.put(
        "train_iter_s",
        stats::median(&iterations).expect("every workload trains"),
    );
    m.put(
        "train_bootstrap_s",
        stats::median(&bootstraps).expect("every workload bootstraps"),
    );
    m.put("train_test_gmrl", eval.gmrl);

    println!(
        "{}: {} repetitions in {served_s:.1} s; requests attempted {attempted}, answered and correct {}, failed {failed}",
        def.name,
        passes.len(),
        attempted - failed,
    );
    let qps: Vec<String> = passes.iter().map(|p| format!("{:.0}", p.qps())).collect();
    println!("{}: requests/s per repetition: {}", def.name, qps.join(" "));
    if let Some((p, v)) = stats::highest_supported(&all_latencies) {
        println!(
            "{}: {} timed samples over all repetitions; highest percentile with >= {} samples beyond it: p{p} = {v:.1} us",
            def.name,
            all_latencies.len(),
            stats::MIN_TAIL_SAMPLES,
        );
    }
    println!(
        "{}: doctored_share = {:.6} ({doctored} of {} requests served the doctor's own plan)",
        def.name,
        doctored as f64 / ready.requests.sequence.len() as f64,
        ready.requests.sequence.len(),
    );
    Ok(PhaseResult {
        metrics: m,
        attempted,
        failed,
    })
}
