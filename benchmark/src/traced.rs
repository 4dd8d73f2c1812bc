//! The traced phase: the per-layer metrics.
//!
//! Single-threaded, over the first requests of the workload's sequence. Each
//! request goes down three lanes: the benchmark walks the serving path by
//! hand through the public API with a span around each call into a layer,
//! hands the same query to `PlanDoctor::submit`, and sends it through the
//! socket. Every lane has its own executor, so their result caches stay
//! apart, and the lanes take turns block by block, so warm-up and machine
//! drift hit all three alike and the differences between them
//! (`service.transport_us`, `service.submit_overhead_us`) are paired. The
//! requests are run twice — from cold caches, then again warm — and a
//! workload reports from the pass its own traffic looks like. Product code is
//! not touched: what outside timing cannot see is `submit_overhead`.

use std::io::Write;
use std::sync::Arc;

use foss_repro::common::{FossError, FxHashMap, FxHashSet, QueryId, Result};
use foss_repro::core::{select_best, AdvantageScale};
use foss_repro::executor::{CachingExecutor, ExecOutcome};
use foss_repro::optimizer::PhysicalPlan;
use foss_repro::query::Query;
use foss_repro::service::tier::TierEntry;
use foss_repro::service::{
    FallbackReason, Json, PlanDecision, PlanDoctor, PlanOutcome, PlanReply, PlanRequest,
    PlanServer, QueryRequest, ServiceConfig, TierEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{MetricSet, PER_LAYER};
use crate::oracle::Oracle;
use crate::setup::{self, Ready};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::timed::PhaseResult;
use crate::workload::{WorkloadDef, DATA_SEED};

/// Requests a lane serves in a row before the next lane takes its turn.
const BLOCK: usize = 100;

/// Queries the per-call measurements (`core.encode_us`, `optimizer.dp_us`,
/// ...) are taken on.
const MICRO_QUERIES: usize = 300;

/// One request of the hand walk: µs per stage and what the executor did.
#[derive(Debug, Clone, Default)]
struct WalkRow {
    json_in: f64,
    expert_plan: f64,
    infer: f64,
    exec_expert: f64,
    /// 0 when the request ran no doctored plan.
    exec_doctored: f64,
    json_out: f64,
    /// The expert plan came from a DP run, not from a memo.
    dp_call: bool,
    expert_miss: bool,
    doctored_miss: bool,
    /// Work units of the executions that really ran (cache misses).
    cold_work: f64,
    candidates: usize,
}

impl WalkRow {
    fn stages(&self) -> f64 {
        self.expert_plan + self.infer + self.exec_expert + self.exec_doctored
    }

    fn json(&self) -> f64 {
        self.json_in + self.json_out
    }
}

/// The per-doctor state `submit` keeps between requests, kept by hand.
struct WalkState {
    executor: Arc<CachingExecutor>,
    memo: FxHashMap<QueryId, PhysicalPlan>,
    tier: TierEngine,
    /// Ids whose expert plan is frozen into the snapshot (the train split).
    originals: FxHashSet<QueryId>,
}

/// `PlanDoctor::execute_plan`, by hand: tier lookup, then the execution.
fn execute_plan(
    tier: &TierEngine,
    executor: &CachingExecutor,
    query: &Query,
    plan: &PhysicalPlan,
    budget: Option<f64>,
) -> Result<ExecOutcome> {
    match tier.pipeline_for(query, plan).as_deref() {
        Some(TierEntry::Compiled(pipeline)) => {
            executor.execute_tiered(query, plan, budget, Some(pipeline))
        }
        Some(TierEntry::Unsupported) | None => executor.execute(query, plan, budget),
    }
}

/// Serve request `i` by hand, a span around every call into a layer.
fn walk_one(
    ready: &Ready,
    state: &mut WalkState,
    rec: &mut Recorder,
    i: u32,
    pool_index: usize,
) -> Result<(WalkRow, PlanReply)> {
    let cfg = ServiceConfig::default();
    let WalkState {
        executor,
        memo,
        tier,
        originals,
    } = state;
    let executor: &CachingExecutor = executor;
    let body = PlanRequest::for_index(pool_index).to_json().to_string();
    let mut row = WalkRow::default();
    let root = rec.begin("request", None, i);

    let (wire_req, us) = rec.time("service.json_in", Some(root), i, || {
        PlanRequest::from_json(&Json::parse(&body)?)
    });
    row.json_in = us;
    let query = &ready.requests.pool[wire_req?.query];

    let (expert_plan, us) = rec.time("core.expert_plan", Some(root), i, || {
        if let Some(plan) = memo.get(&query.id) {
            return Ok((plan.clone(), false));
        }
        let plan = ready.snapshot.expert_plan(query)?;
        memo.insert(query.id, plan.clone());
        Ok::<_, FossError>((plan, !originals.contains(&query.id)))
    });
    row.expert_plan = us;
    let (expert_plan, dp_call) = expert_plan?;
    row.dp_call = dp_call;

    let (inference, us) = rec.time("core.infer", Some(root), i, || {
        ready.snapshot.optimize_detailed_from(query, &expert_plan)
    });
    row.infer = us;
    let inference = inference?;
    row.candidates = inference.candidates;

    let executed = executor.executions();
    let (expert, us) = rec.time("executor.expert", Some(root), i, || {
        execute_plan(tier, executor, query, &expert_plan, None)
    });
    row.exec_expert = us;
    let expert = expert?;
    if executor.executions() > executed {
        row.expert_miss = true;
        row.cold_work += expert.latency;
    }

    // The fallback policy of `submit` for a request without budgets.
    let mut reason = FallbackReason::None;
    if inference.selected_step != 0 && inference.aam_confidence < cfg.min_confidence {
        reason = FallbackReason::LowConfidence;
    }
    let doctored_is_expert = inference.plan.fingerprint() == expert_plan.fingerprint();
    let (plan, latency) = if reason != FallbackReason::None {
        (expert_plan, expert.latency)
    } else if doctored_is_expert {
        (inference.plan, expert.latency)
    } else {
        let budget = expert.latency * cfg.exec_timeout_factor;
        let executed = executor.executions();
        let (doctored, us) = rec.time("executor.doctored", Some(root), i, || {
            execute_plan(tier, executor, query, &inference.plan, Some(budget))
        });
        row.exec_doctored = us;
        row.doctored_miss = executor.executions() > executed;
        match doctored {
            Ok(out) => {
                if row.doctored_miss {
                    row.cold_work += out.latency;
                }
                (inference.plan, out.latency)
            }
            Err(FossError::Timeout { spent, .. }) => {
                if row.doctored_miss {
                    row.cold_work += spent as f64;
                }
                reason = FallbackReason::ExecTimeout;
                (expert_plan, expert.latency)
            }
            Err(e) => return Err(e),
        }
    };
    let decision = PlanDecision {
        plan,
        fallback: reason != FallbackReason::None,
        reason,
        planning_us: row.expert_plan + row.infer,
        latency,
        selected_step: inference.selected_step,
        candidates: inference.candidates,
        retries: 0,
    };

    let ((reply, _rendered), us) = rec.time("service.json_out", Some(root), i, || {
        let reply = PlanReply::from_decision(&decision, 0);
        let rendered = reply.to_json().to_string();
        (reply, rendered)
    });
    row.json_out = us;
    rec.end(root);
    Ok((row, reply))
}

/// One pass of the traced requests down the three lanes.
struct PassTrace {
    label: &'static str,
    recorder: Recorder,
    rows: Vec<WalkRow>,
    /// Per-request µs of `PlanDoctor::submit` and of the socket round trip.
    submit_us: Vec<f64>,
    roundtrip_us: Vec<f64>,
    /// What each lane answered, request by request.
    replies: [Vec<Option<PlanReply>>; 3],
}

/// Everything the three lanes keep between requests.
struct Lanes {
    walk: WalkState,
    submit: Arc<PlanDoctor>,
    served: Arc<PlanDoctor>,
    server: PlanServer,
}

impl Lanes {
    fn new(ready: &Ready) -> Result<Self> {
        let served = ready.doctor_over(ready.private_executor());
        Ok(Self {
            walk: WalkState {
                executor: ready.private_executor(),
                memo: FxHashMap::default(),
                tier: TierEngine::new(ServiceConfig::default().tier),
                originals: ready.exp.workload.train.iter().map(|q| q.id).collect(),
            },
            submit: ready.doctor_over(ready.private_executor()),
            server: ready.serve(served.clone())?,
            served,
        })
    }

    fn pass(&mut self, label: &'static str, ready: &Ready, seq: &[usize]) -> Result<PassTrace> {
        let client = self.server.client();
        let mut trace = PassTrace {
            label,
            recorder: Recorder::with_capacity(seq.len() * 10),
            rows: Vec::with_capacity(seq.len()),
            submit_us: Vec::with_capacity(seq.len()),
            roundtrip_us: Vec::with_capacity(seq.len()),
            replies: Default::default(),
        };
        // Block by block: within a block a lane runs request after request,
        // as a server does, so its caches are in their steady state; across
        // blocks the lanes alternate, so warm-up and drift hit all alike.
        for (block, requests) in seq.chunks(BLOCK).enumerate() {
            let numbered = || {
                requests
                    .iter()
                    .enumerate()
                    .map(|(k, &pool_index)| ((block * BLOCK + k) as u32, pool_index))
            };
            let rec = &mut trace.recorder;
            for (i, pool_index) in numbered() {
                let (row, reply) = walk_one(ready, &mut self.walk, rec, i, pool_index)?;
                trace.rows.push(row);
                trace.replies[0].push(Some(reply));
            }
            for (i, pool_index) in numbered() {
                let request = QueryRequest::new(ready.requests.pool[pool_index].clone());
                let (decision, us) =
                    rec.time("service.submit", None, i, || self.submit.submit(request));
                trace.submit_us.push(us);
                trace.replies[1].push(decision.ok().map(|d| PlanReply::from_decision(&d, 0)));
            }
            for (i, pool_index) in numbered() {
                let request = PlanRequest::for_index(pool_index);
                let (outcome, us) =
                    rec.time("service.roundtrip", None, i, || client.plan(&request));
                trace.roundtrip_us.push(us);
                trace.replies[2].push(match outcome {
                    Ok(PlanOutcome::Decision(reply)) => Some(reply),
                    Ok(PlanOutcome::Rejected(_)) | Err(_) => None,
                });
            }
        }
        Ok(trace)
    }
}

/// Medians of single calls into `core` and `optimizer`, on the traced
/// queries: the parts `core.infer` is made of, as far as they are public.
struct Micro {
    encode_us: f64,
    steer_us: f64,
    aam_pair_us: f64,
    select_us: f64,
    dp_us: f64,
}

fn micro(ready: &Ready, seq: &[usize]) -> Result<Micro> {
    let encoder = ready.exp.encoder();
    let optimizer = &ready.exp.workload.optimizer;
    let aam = ready.snapshot.aam();
    let max_steps = ready.snapshot.config().max_steps;
    let mut seen = FxHashSet::default();
    let (mut encode, mut steer, mut pair, mut select, mut dp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rec = Recorder::with_capacity(5 * MICRO_QUERIES);
    for &pool_index in seq {
        if seen.len() == MICRO_QUERIES {
            break;
        }
        if !seen.insert(pool_index) {
            continue;
        }
        let query = &ready.requests.pool[pool_index];
        let (plan, us) = rec.time("optimizer.dp", None, 0, || optimizer.optimize(query));
        dp.push(us);
        let plan = plan?;
        let (encoded, us) = rec.time("core.encode", None, 0, || encoder.encode(query, &plan, 0.0));
        encode.push(us);
        let icp = plan.extract_icp()?;
        let (steered, us) = rec.time("optimizer.steer", None, 0, || {
            optimizer.optimize_with_hint(query, &icp)
        });
        steer.push(us);
        let other = encoder.encode(query, &steered?, 1.0 / max_steps as f32);
        let (_, us) = rec.time("core.aam_pair", None, 0, || aam.predict(&encoded, &other));
        pair.push(us);
        let candidates: Vec<_> = (0..=max_steps)
            .map(|c| if c % 2 == 0 { &encoded } else { &other })
            .collect();
        let (_, us) = rec.time("core.select", None, 0, || select_best(aam, &candidates));
        select.push(us);
    }
    let med = |v: &[f64]| median(v).expect("the traced phase has requests");
    Ok(Micro {
        encode_us: med(&encode),
        steer_us: med(&steer),
        aam_pair_us: med(&pair),
        select_us: med(&select),
        dp_us: med(&dp),
    })
}

/// `(core.aam_train_epoch_ms, core.aam_batch64_us)` on the trainer's own
/// buffer and a copy of its AAM.
fn aam_costs(ready: &Ready) -> (f64, f64) {
    let foss = &ready.adapter.foss;
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let scale = AdvantageScale::new(foss.config().adv_points.clone());
    let pairs = foss.buffer().training_pairs(&scale, 200, &mut rng);
    let mut aam = foss.aam().clone();
    let mut rec = Recorder::with_capacity(32);
    let epochs: Vec<f64> = (0..3)
        .map(|_| {
            rec.time("core.aam_train_epoch", None, 0, || {
                aam.train_epoch(&pairs, &mut rng)
            })
            .1 / 1e3
        })
        .collect();
    let batch: Vec<_> = pairs.iter().take(64).map(|s| (&s.0, &s.1)).collect();
    let batches: Vec<f64> = (0..20)
        .map(|_| {
            rec.time("core.aam_batch64", None, 0, || {
                foss.aam().predict_batch(&batch)
            })
            .1
        })
        .collect();
    (
        median(&epochs).unwrap_or(0.0),
        median(&batches).unwrap_or(0.0),
    )
}

/// Per-request pairings between the lanes of one pass.
impl PassTrace {
    /// `submit` minus the stage spans: gate, breaker, memo lock, tier
    /// tracker, metrics — and whatever else outside timing cannot see.
    fn submit_overhead(&self) -> Vec<f64> {
        self.submit_us
            .iter()
            .zip(&self.rows)
            .map(|(submit, row)| submit - row.stages())
            .collect()
    }

    /// Round trip minus `submit` minus JSON: connect, HTTP, thread spawn.
    fn transport(&self) -> Vec<f64> {
        self.roundtrip_us
            .iter()
            .zip(&self.submit_us)
            .zip(&self.rows)
            .map(|((roundtrip, submit), row)| roundtrip - submit - row.json())
            .collect()
    }

    fn column(&self, f: fn(&WalkRow) -> f64) -> Vec<f64> {
        self.rows.iter().map(f).collect()
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The stage table open item 1b asks for: where a request's time goes, as a
/// share of `submit` and of the round trip, for one pass.
fn print_stage_table(name: &str, pass: &PassTrace) {
    let submit_total: f64 = pass.submit_us.iter().sum();
    let roundtrip_total: f64 = pass.roundtrip_us.iter().sum();
    let n = pass.rows.len() as f64;
    println!(
        "{name}: stage table, {} pass ({} requests; submit median {:.1} us, round trip median {:.1} us)",
        pass.label,
        pass.rows.len(),
        med(&pass.submit_us),
        med(&pass.roundtrip_us),
    );
    println!(
        "{name}:   {:<30} {:>10} {:>10} {:>9} {:>9}",
        "stage", "median_us", "mean_us", "%submit", "%rtrip"
    );
    let line = |stage: &str, values: Vec<f64>, in_submit: bool| {
        let total: f64 = values.iter().sum();
        let share = |of: f64| format!("{:.1}", 100.0 * total / of);
        println!(
            "{name}:   {stage:<30} {:>10.1} {:>10.1} {:>9} {:>9}",
            med(&values),
            total / n,
            if in_submit {
                share(submit_total)
            } else {
                "-".into()
            },
            share(roundtrip_total),
        );
    };
    line("service.json_in", pass.column(|r| r.json_in), false);
    line("core.expert_plan", pass.column(|r| r.expert_plan), true);
    line("core.infer", pass.column(|r| r.infer), true);
    line("executor.expert", pass.column(|r| r.exec_expert), true);
    line("executor.doctored", pass.column(|r| r.exec_doctored), true);
    line("service.json_out", pass.column(|r| r.json_out), false);
    line(
        "service.submit (unattributed)",
        pass.submit_overhead(),
        true,
    );
    line("service.transport", pass.transport(), false);

    // Self time of the hand walk's spans: span minus children.
    let spans = pass.recorder.spans();
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(spans::self_times_ns(spans)) {
        if span.parent.is_none() && span.name != "request" {
            continue; // the submit and round-trip lanes have no children
        }
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += own as f64 / 1e3,
            None => by_name.push((span.name, own as f64 / 1e3)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranking: Vec<String> = by_name
        .iter()
        .map(|(name, us)| format!("{name} {:.1}", us / n))
        .collect();
    println!(
        "{name}: self time per request, {} pass, us, largest first: {}",
        pass.label,
        ranking.join(", ")
    );
}

/// Check every reply of every lane of every pass against the oracle.
fn check_replies(passes: [&PassTrace; 2], seq: &[usize], oracle: &Oracle) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for pass in passes {
        for (lane, replies) in ["walk", "submit", "roundtrip"].iter().zip(&pass.replies) {
            for (reply, &pool_index) in replies.iter().zip(seq) {
                attempted += 1;
                let verdict = match reply {
                    Some(reply) => oracle.expect(pool_index).check(reply),
                    None => Err("no decision".to_string()),
                };
                if let Err(why) = verdict {
                    if failed < 5 {
                        eprintln!(
                            "benchmark: {lane} lane, {} pass, pool query {pool_index} failed: {why}",
                            pass.label
                        );
                    }
                    failed += 1;
                }
            }
        }
    }
    (attempted, failed)
}

pub fn run(def: &WorkloadDef, seed: u64, trace_out: Option<&str>) -> Result<PhaseResult> {
    let mut ready = setup::set_up(def, seed)?;
    let oracle = Oracle::price(def, &ready)?;
    oracle.drop_unpriced(&mut ready.requests);
    let seq = &ready.requests.sequence[..def.traced_requests.min(ready.requests.sequence.len())];
    println!(
        "{}: traced phase, single-threaded, first {} requests of the sequence",
        def.name,
        seq.len()
    );

    let mut lanes = Lanes::new(&ready)?;
    let cold = lanes.pass("cold", &ready, seq)?;
    let warm = lanes.pass("warm", &ready, seq)?;
    let Lanes {
        submit,
        served,
        server,
        ..
    } = lanes;
    server.shutdown();
    let micro = micro(&ready, seq)?;
    let (aam_epoch_ms, aam_batch64_us) = aam_costs(&ready);

    // Spans leave memory only now that every pass is over.
    if let Some(path) = trace_out {
        let io = |e: std::io::Error| FossError::Serde(format!("cannot write {path}: {e}"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for pass in [&cold, &warm] {
            spans::write_jsonl(&mut out, pass.label, pass.recorder.spans()).map_err(io)?;
        }
        out.flush().map_err(io)?;
    }

    let (attempted, failed) = check_replies([&cold, &warm], seq, &oracle);
    print_stage_table(def.name, &cold);
    print_stage_table(def.name, &warm);

    // The pass that looks like the workload's own traffic.
    let natural = if def.traffic.warms_up() { &warm } else { &cold };
    let n = seq.len() as f64;
    let overhead = natural.submit_overhead();
    let stage_share = natural.rows.iter().map(WalkRow::stages).sum::<f64>()
        / natural.submit_us.iter().sum::<f64>();
    println!(
        "{}: trace_gap_us = {:.2} (median of submit minus its stage spans, {} pass; the stages are {:.1}% of submit time)",
        def.name,
        med(&overhead),
        natural.label,
        stage_share * 100.0,
    );

    let infer_us = med(&natural.column(|r| r.infer));
    let max_steps = ready.snapshot.config().max_steps as f64;
    let cold_ns: f64 = cold
        .rows
        .iter()
        .map(|r| {
            1e3 * (if r.expert_miss { r.exec_expert } else { 0.0 }
                + if r.doctored_miss {
                    r.exec_doctored
                } else {
                    0.0
                })
        })
        .sum();
    let cold_work: f64 = cold.rows.iter().map(|r| r.cold_work).sum();
    let count = |f: fn(&WalkRow) -> bool| natural.rows.iter().filter(|r| f(r)).count();
    let executions = count(|r| r.expert_miss) + count(|r| r.doctored_miss);
    let lookups = natural.rows.len() + count(|r| r.exec_doctored > 0.0);
    let doctored = seq.iter().filter(|&&q| oracle.expect(q).doctored()).count();
    let only = |pass: &PassTrace, keep: fn(&WalkRow) -> bool, f: fn(&WalkRow) -> f64| -> f64 {
        med(&pass
            .rows
            .iter()
            .filter(|r| keep(r))
            .map(f)
            .collect::<Vec<_>>())
    };
    let times = &ready.times;
    let submit_counts = submit.metrics();

    let mut m = MetricSet::new(PER_LAYER);
    m.put("service.roundtrip_us", med(&natural.roundtrip_us));
    m.put("service.submit_us", med(&natural.submit_us));
    m.put("service.transport_us", med(&natural.transport()));
    m.put("service.json_in_us", med(&natural.column(|r| r.json_in)));
    m.put("service.json_out_us", med(&natural.column(|r| r.json_out)));
    m.put("service.submit_overhead_us", med(&overhead));
    m.put("service.tier_hits", submit_counts.tier_hits as f64);
    m.put("service.tier_compiles", submit_counts.tier_compiles as f64);
    m.put(
        "service.tier_fallbacks",
        submit_counts.tier_fallbacks as f64,
    );
    m.put("service.fallback_share", submit_counts.fallback_rate);
    m.put("service.retries", submit_counts.retries as f64);
    m.put(
        "service.inflight_hwm",
        served.metrics().in_flight_high_water as f64,
    );
    m.put(
        "core.expert_plan_us",
        med(&natural.column(|r| r.expert_plan)),
    );
    m.put("core.infer_us", infer_us);
    m.put("core.encode_us", micro.encode_us);
    m.put("core.aam_pair_us", micro.aam_pair_us);
    m.put("core.select_us", micro.select_us);
    m.put(
        "core.infer_unattributed_us",
        infer_us
            - (max_steps * micro.steer_us + (max_steps + 1.0) * micro.encode_us + micro.select_us),
    );
    m.put(
        "core.candidates_per_request",
        natural.rows.iter().map(|r| r.candidates).sum::<usize>() as f64 / n,
    );
    m.put("core.doctored_share", doctored as f64 / n);
    m.put("core.snapshot_encode_ms", times.snapshot_encode_s * 1e3);
    m.put("core.snapshot_decode_ms", times.snapshot_decode_s * 1e3);
    m.put("core.snapshot_bytes", ready.snapshot_bytes as f64);
    m.put("core.bootstrap_s", times.bootstrap_s);
    m.put("core.train_iteration_s", med(&times.iteration_s));
    m.put("core.aam_train_epoch_ms", aam_epoch_ms);
    m.put("core.aam_batch64_us", aam_batch64_us);
    m.put(
        "core.aam_accuracy",
        f64::from(ready.last_report.aam_accuracy),
    );
    m.put("core.buffer_plans", ready.last_report.buffer_plans as f64);
    m.put("optimizer.dp_us", micro.dp_us);
    m.put("optimizer.steer_us", micro.steer_us);
    m.put(
        "optimizer.dp_calls_per_request",
        count(|r| r.dp_call) as f64 / n,
    );
    m.put(
        "executor.expert_us",
        only(&cold, |r| r.expert_miss, |r| r.exec_expert),
    );
    m.put(
        "executor.doctored_us",
        only(&cold, |r| r.doctored_miss, |r| r.exec_doctored),
    );
    m.put(
        "executor.cached_lookup_us",
        only(&warm, |r| !r.expert_miss, |r| r.exec_expert),
    );
    m.put(
        "executor.cache_hit_rate",
        (lookups - executions) as f64 / lookups as f64,
    );
    m.put("executor.executions", executions as f64);
    m.put("executor.work_units_per_request", cold_work / n);
    m.put(
        "executor.ns_per_work_unit",
        if cold_work > 0.0 {
            cold_ns / cold_work
        } else {
            0.0
        },
    );
    m.put(
        "executor.validation_execs",
        ready.last_report.plans_executed as f64,
    );
    m.put("workloads.build_s", times.build_s);
    m.put("workloads.pool_gen_s", times.pool_gen_s);
    Ok(PhaseResult {
        metrics: m,
        attempted,
        failed,
    })
}
