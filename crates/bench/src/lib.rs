//! Benchmark crate: criterion micro-benchmarks (`benches/micro.rs`), the
//! `repro` experiment runner that prints the paper's tables and figures,
//! and the `plan-doctor`, `probe` and `foss-lint` binaries (`src/bin/*`).
//!
//! `repro` reads two environment variables so the same runs serve both
//! smoke checks and fuller reproductions:
//!
//! * `FOSS_SCALE` — workload row-count multiplier (default 1.0, the full
//!   generator size; the chunked executor makes this the practical default);
//! * `FOSS_ROUNDS` — training rounds / iterations (default 3).
//!
//! A value that does not parse (or a scale that is not a finite number
//! above 0, or more rounds than the episode count can hold) stops the
//! binary with exit code 2 and a message naming the variable, rather than
//! silently running at the default.

pub mod cli;
pub mod lint;
pub mod load;

use criterion::Criterion;
use foss_common::QueryId;
use foss_core::encoding::PlanEncoder;
use foss_core::{AdvantageModel, AdvantageScale, Foss, FossConfig};
use foss_executor::{CachingExecutor, ExecMode, Executor, FusedPipeline};
use foss_harness::RunConfig;
use foss_nn::{GradStore, Graph, Linear, Matrix, ParamSet};
use foss_optimizer::{AccessPath, Icp, JoinMethod, PhysicalPlan, PlanNode};
use foss_query::{Predicate, Query, QueryBuilder};
use foss_service::{PlanDoctor, PlanRequest, PlanServer, QueryRequest, ServiceConfig};
use foss_workloads::{joblite, skewstress, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Build the shared run configuration from the environment; on a value
/// that cannot work, print the error and exit 2 (see the crate docs).
pub fn run_config_from_env() -> RunConfig {
    let var = |name| std::env::var(name).ok();
    run_config(var("FOSS_SCALE").as_deref(), var("FOSS_ROUNDS").as_deref()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// The run configuration for the given `FOSS_SCALE` / `FOSS_ROUNDS` values
/// (`None` or blank = unset).
fn run_config(scale: Option<&str>, rounds: Option<&str>) -> Result<RunConfig, String> {
    let scale = cli::scale_from_env(scale)?;
    let rounds: usize = match rounds {
        Some(v) if !v.trim().is_empty() => v
            .trim()
            .parse()
            .map_err(|_| format!("FOSS_ROUNDS must be a whole number, got `{v}`"))?,
        _ => 3,
    };
    let foss_episodes = rounds
        .checked_mul(30)
        .ok_or_else(|| format!("FOSS_ROUNDS is too large to run, got `{rounds}`"))?;
    Ok(RunConfig {
        spec: WorkloadSpec { seed: 42, scale },
        rounds,
        foss_episodes,
    })
}

/// The micro-benchmark suite behind `benches/micro.rs` *and*
/// `probe --out BENCH_<tag>.json`: per-component costs of the FOSS hot paths
/// (expert planning, hint steering, plan encoding, single and batched AAM
/// inference, executor throughput, NN kernels).
///
/// Shared so the checked-in `BENCH_<tag>.json` perf trajectory and the CI
/// regression gate measure exactly what the criterion bench target measures.
pub fn micro_suite(c: &mut Criterion) {
    let wl = joblite::build(WorkloadSpec {
        seed: 42,
        scale: 0.15,
    })
    .expect("workload");
    let query = wl
        .train
        .iter()
        .max_by_key(|q| q.relation_count())
        .unwrap()
        .clone();
    let opt = wl.optimizer.clone();
    let plan = opt.optimize(&query).unwrap();
    let icp = plan.extract_icp().unwrap();
    let encoder = PlanEncoder::new(wl.table_count(), wl.table_rows());
    let encoded = encoder.encode(&query, &plan, 0.0);

    c.bench_function("optimizer/dp_full_plan", |b| {
        b.iter(|| black_box(opt.optimize(black_box(&query)).unwrap()))
    });
    c.bench_function("optimizer/hint_steering", |b| {
        b.iter(|| {
            black_box(
                opt.optimize_with_hint(black_box(&query), black_box(&icp))
                    .unwrap(),
            )
        })
    });
    c.bench_function("encoding/plan_encode", |b| {
        b.iter(|| black_box(encoder.encode(black_box(&query), black_box(&plan), 0.5)))
    });

    let mut rng = StdRng::seed_from_u64(7);
    let aam = AdvantageModel::new(wl.table_count() + 1, &FossConfig::tiny(), &mut rng);
    c.bench_function("aam/pair_inference", |b| {
        b.iter(|| black_box(aam.predict(black_box(&encoded), black_box(&encoded))))
    });
    // The two batched callers in the system, in their real shapes. Batch 8 is
    // a selector tournament wave: one champion scored against 8 *distinct*
    // candidate plans (encoded at distinct steps, so the state network
    // genuinely runs per candidate). Batch 64 is AAM training/accuracy
    // scoring: the first 64 ordered pairs drawn from 9 distinct plans —
    // exactly what `ExecutionBuffer::training_pairs` emits, where unique-plan
    // dedup lets one state-network pass serve many pairs.
    let candidates: Vec<_> = (0..9)
        .map(|i| encoder.encode(&query, &plan, i as f32 / 9.0))
        .collect();
    let wave: Vec<_> = candidates[..8].iter().map(|c| (&encoded, c)).collect();
    c.bench_function("aam/pair_inference_batch8", |b| {
        b.iter(|| black_box(aam.predict_batch(black_box(&wave))))
    });
    let mut ordered_pairs = Vec::new();
    for l in &candidates {
        for r in &candidates {
            if !std::ptr::eq(l, r) {
                ordered_pairs.push((l, r));
            }
        }
    }
    ordered_pairs.truncate(64);
    c.bench_function("aam/pair_inference_batch64", |b| {
        b.iter(|| black_box(aam.predict_batch(black_box(&ordered_pairs))))
    });

    let exec = Executor::new(&wl.db, *opt.cost_model());
    c.bench_function("executor/expert_plan", |b| {
        b.iter(|| black_box(exec.execute(&query, &plan, None).unwrap()))
    });
    let caching = CachingExecutor::new(wl.db.clone(), *opt.cost_model());
    caching.execute(&query, &plan, None).unwrap();
    c.bench_function("executor/cached_lookup", |b| {
        b.iter(|| black_box(caching.execute(&query, &plan, None).unwrap()))
    });

    // Chunk-at-a-time operators vs the scalar reference, on full-scale
    // (scale = 1.0) joblite tables so per-tuple interpreter overhead is what
    // gets measured. The `*_scalar` twins quantify the speedup; the perf
    // gate guards the chunked engines against regressions.
    let full = joblite::build(WorkloadSpec::seeded(42)).expect("full-scale workload");
    let cost = *full.optimizer.cost_model();
    let chunked = Executor::new(&full.db, cost);
    let scalar = Executor::with_mode(&full.db, cost, ExecMode::Scalar);
    let (scan_query, scan_plan) = scan_filter_case(&full);
    c.bench_function("exec/scan_filter", |b| {
        b.iter(|| black_box(chunked.execute(&scan_query, &scan_plan, None).unwrap()))
    });
    c.bench_function("exec/scan_filter_scalar", |b| {
        b.iter(|| black_box(scalar.execute(&scan_query, &scan_plan, None).unwrap()))
    });
    let (join_query, join_plan) = hash_join_case(&full);
    c.bench_function("exec/hash_join", |b| {
        b.iter(|| black_box(chunked.execute(&join_query, &join_plan, None).unwrap()))
    });
    c.bench_function("exec/hash_join_scalar", |b| {
        b.iter(|| black_box(scalar.execute(&join_query, &join_plan, None).unwrap()))
    });
    // The same hash join through the tier-2 fused pipeline: identical rows
    // and metered latency as `exec/hash_join` by construction, so the delta
    // to that bench is pure dispatch overhead removed — the steady-state
    // win the fused tier buys.
    let fused_join = FusedPipeline::compile(&join_query, &join_plan)
        .expect("forced hash join is a supported tier-2 shape");
    c.bench_function("exec/fused_hot_path", |b| {
        b.iter(|| {
            black_box(
                fused_join
                    .execute(&full.db, cost, &join_query, None)
                    .unwrap(),
            )
        })
    });

    // Count mode through the interpreter on a wide plan: the heaviest expert
    // plan among the ≥ 6-relation joblite queries (seven relations, 1.26 M
    // result rows at this scale). What it guards is that the root join only
    // counts and the joins below it emit only live slots — materialising
    // that result full-width is 35 MB per execution.
    let (wide_query, wide_plan) = count_wide_case(&full, &chunked);
    c.bench_function("exec/count_wide", |b| {
        b.iter(|| black_box(chunked.execute(&wide_query, &wide_plan, None).unwrap()))
    });

    // Heavy-tail hash join from the skew-stress workload: with Zipf s ≥ 1.5
    // join keys, the hottest key owns ~40% of both sides, so one hash bucket
    // dominates the build and almost every probe lands in a long chain —
    // the adversarial shape for the chunked join's key-gather path.
    let skew = skewstress::build(WorkloadSpec {
        seed: 42,
        scale: 0.2,
    })
    .expect("skewstress workload");
    let skew_cost = *skew.optimizer.cost_model();
    let skew_exec = Executor::new(&skew.db, skew_cost);
    let (skew_query, skew_plan) = hash_join_skewed_case(&skew);
    c.bench_function("exec/hash_join_skewed", |b| {
        b.iter(|| black_box(skew_exec.execute(&skew_query, &skew_plan, None).unwrap()))
    });

    // PlanDoctor serving throughput: the same submission batch planned and
    // executed through the service front end by one thread vs four worker
    // threads over a single shared snapshot. The 1→4-thread ratio is the
    // concurrent-serving scaling figure (≈1× on a single-core host — the
    // planning path is CPU-bound — and grows with available cores).
    let caching_for_service = Arc::new(CachingExecutor::new(wl.db.clone(), *opt.cost_model()));
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        caching_for_service.clone(),
        wl.max_relations,
        wl.table_rows(),
        FossConfig {
            episodes_per_update: 4,
            ..FossConfig::tiny()
        },
    );
    let serve_train: Vec<Query> = wl.train.iter().take(6).cloned().collect();
    foss.bootstrap(&serve_train, 1).expect("service bootstrap");
    let doctor = Arc::new(PlanDoctor::new(
        foss.snapshot(),
        caching_for_service,
        ServiceConfig::default(),
    ));
    let serve_queries: Vec<Query> = wl.train.iter().take(8).cloned().collect();
    // Warm the latency cache so both benches measure planning throughput,
    // not first-touch execution.
    for q in &serve_queries {
        doctor.submit(QueryRequest::new(q.clone())).expect("warmup");
    }
    c.bench_function("service/submit_throughput_1t", |b| {
        b.iter(|| {
            for q in &serve_queries {
                black_box(doctor.submit(QueryRequest::new(q.clone())).unwrap());
            }
        })
    });
    c.bench_function("service/submit_throughput", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for chunk in serve_queries.chunks(serve_queries.len().div_ceil(4)) {
                    let doctor = doctor.as_ref();
                    scope.spawn(move || {
                        for q in chunk {
                            black_box(doctor.submit(QueryRequest::new(q.clone())).unwrap());
                        }
                    });
                }
            })
        })
    });

    // One warm submit as a remote caller pays it: `PlanClient::plan` over
    // loopback on the connection the warm-up call parked. Against a single
    // `service/submit_throughput_1t` submit (that bench ÷ 8) the difference
    // is the wire: JSON both ways, two socket writes and reads, a wake-up.
    let server = PlanServer::start(doctor.clone(), serve_queries.clone(), "127.0.0.1:0")
        .expect("loopback server");
    let client = server.client();
    let wire_request = PlanRequest::for_index(0);
    client.plan(&wire_request).expect("wire warmup");
    c.bench_function("service/wire_roundtrip", |b| {
        b.iter(|| black_box(client.plan(&wire_request).unwrap()))
    });
    server.shutdown();

    // The two phases that decide a training iteration's wall time, on a
    // buffer bootstrapped over the whole train split under the serving
    // configuration: one AAM epoch over the buffer's labelled pairs (each
    // pass starts from the same weights), and one agent's 100 simulated
    // episodes fanned out over their shards (no PPO update, so the policy
    // they sample from stays the same).
    let mut trainer = Foss::new(
        wl.optimizer.clone(),
        Arc::new(CachingExecutor::new(wl.db.clone(), *opt.cost_model())),
        wl.max_relations,
        wl.table_rows(),
        FossConfig {
            episodes_per_update: 100,
            ..FossConfig::tiny()
        },
    );
    trainer.bootstrap(&wl.train, 1).expect("trainer bootstrap");
    let mut pair_rng = StdRng::seed_from_u64(13);
    let pairs = trainer.buffer().training_pairs(
        &AdvantageScale::new(trainer.config().adv_points.clone()),
        200,
        &mut pair_rng,
    );
    c.bench_function("aam/train_epoch", |b| {
        b.iter(|| {
            let mut model = trainer.aam().clone();
            black_box(model.train_epoch(&pairs, &mut pair_rng))
        })
    });
    c.bench_function("train/sim_episodes", |b| {
        b.iter(|| black_box(trainer.simulate_episodes(&wl.train, 1).unwrap()))
    });

    let a = Matrix::full(64, 64, 0.5);
    let bm = Matrix::full(64, 64, 0.25);
    c.bench_function("nn/matmul_64x64", |b| b.iter(|| black_box(a.matmul(&bm))));
    let a128 = Matrix::full(128, 128, 0.5);
    let b128 = Matrix::full(128, 128, 0.25);
    c.bench_function("nn/matmul_128x128", |b| {
        b.iter(|| black_box(a128.matmul(&b128)))
    });
    // The hot backward product `g · Wᵀ` at one AAM gradient shard's QKV
    // projection: a 145-row upstream gradient over the 3 × 64 packed
    // Q/K/V columns, times the 64 × 192 weight.
    let grad = Matrix::from_vec(145, 192, (0..145 * 192).map(|i| (i as f32).sin()).collect());
    let qkv_w = Matrix::from_vec(64, 192, (0..64 * 192).map(|i| (i as f32).cos()).collect());
    c.bench_function("nn/matmul_nt_backward", |b| {
        b.iter(|| black_box(grad.matmul_nt(&qkv_w)))
    });
    // The weight gradient `xᵀ · g` of that projection, the matmul that took
    // the most CPU per training iteration before the blocked kernels: the
    // shard's 145 × 64 input, transposed in place, times the 145 × 192
    // gradient.
    let shard_x = Matrix::from_vec(145, 64, (0..145 * 64).map(|i| (i as f32).sin()).collect());
    c.bench_function("nn/matmul_tn_weight_grad", |b| {
        b.iter(|| black_box(shard_x.matmul_tn(&grad)))
    });
    // The projection's forward at the 9-row shape inference runs: a
    // broadcast bias row plus `x · W` through `matmul_acc_into`.
    let state_x = Matrix::from_vec(9, 64, (0..9 * 64).map(|i| (i as f32).cos()).collect());
    let bias = Matrix::from_vec(
        9,
        192,
        (0..9 * 192).map(|i| ((i % 192) as f32).sin()).collect(),
    );
    let mut state_out = bias.clone();
    c.bench_function("nn/linear_state_forward", |b| {
        b.iter(|| {
            state_out.data.copy_from_slice(&bias.data);
            state_x.matmul_acc_into(&qkv_w, &mut state_out);
            black_box(&state_out);
        })
    });

    // Fused attention forward + backward at one AAM gradient shard's shape
    // in the paper configuration: the distinct plans of the first eight
    // training pairs stacked as segments, with their own reachability
    // masks, through a packed Q/K/V of `heads` heads over `d_model`.
    let paper = FossConfig::default();
    let mut shard_plans: Vec<&foss_core::EncodedPlan> = Vec::new();
    for (l, r, _) in pairs.iter().take(8) {
        for plan in [l, r] {
            if !shard_plans.contains(&plan) {
                shard_plans.push(plan);
            }
        }
    }
    let reaches: Vec<&[Vec<bool>]> = shard_plans.iter().map(|p| p.reach.as_slice()).collect();
    let (attn_mask, segs) = foss_nn::segment_additive_mask(&reaches);
    let mut attn_set = ParamSet::new();
    let total: usize = segs.iter().sum();
    let qkv = attn_set.alloc_xavier(total, 3 * paper.d_model, &mut StdRng::seed_from_u64(17));
    let scale = 1.0 / ((paper.d_model / paper.heads) as f32).sqrt();
    c.bench_function("nn/seg_mha_backward", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.param(qkv, &attn_set);
            let m = g.input(attn_mask.clone());
            let y = g.seg_multi_head_attention(x, m, &segs, paper.heads, scale);
            let loss = g.sum_all(y);
            let mut grads = GradStore::zeros_like(&attn_set);
            g.backward_into(loss, &mut grads);
            black_box(grads)
        })
    });

    // One tape forward of a 64-state batch through a 2-layer MLP: measures
    // how graph-construction overhead amortises across a batch.
    let mut nn_rng = StdRng::seed_from_u64(11);
    let mut set = ParamSet::new();
    let l1 = Linear::new(&mut set, 64, 64, &mut nn_rng);
    let l2 = Linear::new(&mut set, 64, 3, &mut nn_rng);
    let batch_in = Matrix::full(64, 64, 0.1);
    c.bench_function("nn/matmul_batched_fwd", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.input(batch_in.clone());
            let h = l1.forward(&mut g, &set, x);
            let h = g.relu(h);
            let out = l2.forward(&mut g, &set, h);
            black_box(g.value(out).get(0, 0))
        })
    });

    let _ = Arc::strong_count(&opt);
}

/// A single-relation scan over `cast_info` (the biggest joblite table) with
/// one range and one equality filter, forced onto a sequential scan.
fn scan_filter_case(wl: &foss_workloads::Workload) -> (Query, PhysicalPlan) {
    let schema = wl.db.schema().clone();
    let mut qb = QueryBuilder::new(QueryId::new(9001), 1);
    let ci = qb.relation(schema.table_id("cast_info").expect("cast_info"), "ci");
    // person_id in the lower half, role_id pinned: a moderately selective
    // conjunction evaluated over every row.
    qb.predicate(
        ci,
        Predicate::Range {
            column: 1,
            lo: 0,
            hi: 3999,
        },
    );
    qb.predicate(
        ci,
        Predicate::Eq {
            column: 2,
            value: 3,
        },
    );
    let query = qb.build(&schema).expect("scan query");
    let plan = PhysicalPlan {
        root: PlanNode::Scan {
            relation: 0,
            access: AccessPath::SeqScan,
            est_rows: 0.0,
            est_cost: 0.0,
        },
    };
    (query, plan)
}

/// The ≥ 6-relation training query whose expert plan does the most metered
/// work, with that plan.
fn count_wide_case(wl: &foss_workloads::Workload, exec: &Executor<'_>) -> (Query, PhysicalPlan) {
    wl.train
        .iter()
        .filter(|q| q.relation_count() >= 6)
        .map(|q| {
            let plan = wl.optimizer.optimize(q).expect("expert plan");
            let latency = exec.execute(q, &plan, None).expect("expert run").latency;
            (q, plan, latency)
        })
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(q, plan, _)| (q.clone(), plan))
        .expect("joblite has wide queries")
}

/// `event ⋈ audit` on their shared (extremely Zipf-skewed) hub key, forced
/// onto a hash join: an FK–FK join whose output is dominated by the single
/// hottest key's cross product.
fn hash_join_skewed_case(wl: &foss_workloads::Workload) -> (Query, PhysicalPlan) {
    let schema = wl.db.schema().clone();
    let mut qb = QueryBuilder::new(QueryId::new(9003), 1);
    let e = qb.relation(schema.table_id("event").expect("event"), "e");
    let a = qb.relation(schema.table_id("audit").expect("audit"), "a");
    qb.join(e, 0, a, 0);
    let query = qb.build(&schema).expect("skewed join query");
    let icp = Icp::new(vec![0, 1], vec![JoinMethod::Hash]).expect("icp");
    let plan = wl
        .optimizer
        .optimize_with_hint(&query, &icp)
        .expect("skewed hash plan");
    (query, plan)
}

/// `title ⋈ cast_info` forced onto a hash join (build on `cast_info`).
fn hash_join_case(wl: &foss_workloads::Workload) -> (Query, PhysicalPlan) {
    let schema = wl.db.schema().clone();
    let mut qb = QueryBuilder::new(QueryId::new(9002), 1);
    let t = qb.relation(schema.table_id("title").expect("title"), "t");
    let ci = qb.relation(schema.table_id("cast_info").expect("cast_info"), "ci");
    qb.join(t, 0, ci, 0);
    let query = qb.build(&schema).expect("join query");
    let icp = Icp::new(vec![0, 1], vec![JoinMethod::Hash]).expect("icp");
    let plan = wl
        .optimizer
        .optimize_with_hint(&query, &icp)
        .expect("hash plan");
    (query, plan)
}

/// Parse a `BENCH_<tag>.json` file (the format [`Criterion::summary_json`]
/// writes) into `(name, median_ns)` entries. Hand-rolled: the format is owned
/// by this workspace and the build is offline (no serde_json).
pub fn parse_bench_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_start) = line.find("\"name\"") else {
            continue;
        };
        let rest = &line[name_start + 6..];
        let Some(q1) = rest.find('"') else { continue };
        let Some(q2) = rest[q1 + 1..].find('"') else {
            continue;
        };
        let name = &rest[q1 + 1..q1 + 1 + q2];
        let Some(med_start) = line.find("\"median_ns\"") else {
            continue;
        };
        let med_rest = &line[med_start + 11..];
        let num: String = med_rest
            .chars()
            .skip_while(|c| !c.is_ascii_digit() && *c != '-')
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_roundtrip() {
        let text = "[\n  {\"name\": \"aam/pair_inference\", \"median_ns\": 121373.8},\n  {\"name\": \"nn/matmul_64x64\", \"median_ns\": 31992.3}\n]\n";
        let parsed = parse_bench_json(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "aam/pair_inference");
        assert!((parsed[0].1 - 121373.8).abs() < 1e-6);
        assert!((parsed[1].1 - 31992.3).abs() < 1e-6);
    }

    #[test]
    fn env_config_defaults() {
        let defaults = run_config(None, None).unwrap();
        assert_eq!(defaults.rounds, 3);
        assert_eq!(defaults.spec.scale, 1.0, "generators default to full scale");
    }

    #[test]
    fn env_config_takes_valid_values_and_names_the_bad_variable() {
        let smoke = run_config(Some("0.05"), Some("2")).unwrap();
        assert_eq!((smoke.spec.scale, smoke.rounds), (0.05, 2));
        for scale in ["0", "-1", "nan", "inf", "0,3"] {
            let err = run_config(Some(scale), None).unwrap_err();
            assert!(err.contains("FOSS_SCALE"), "{scale}: {err}");
        }
        for rounds in ["abc", "-1", "2.5", "1000000000000000000"] {
            let err = run_config(None, Some(rounds)).unwrap_err();
            assert!(err.contains("FOSS_ROUNDS"), "{rounds}: {err}");
        }
    }
}
