//! Substrate probes.
//!
//! Two modes:
//!
//! * **Bench mode** (`--out <path>`): run the shared micro-benchmark suite
//!   ([`foss_bench::micro_suite`]) and write the `BENCH_<tag>.json` summary
//!   directly — no more hand-assembling the perf trajectory from bench
//!   stdout. `--quick` shrinks sample counts for CI smoke runs;
//!   `--baseline <path>` + `--max-regress <factor>` turn the run into a
//!   regression gate (non-zero exit when a guarded benchmark's median
//!   exceeds `factor ×` its baseline median).
//! * **Headroom mode** (no `--out`): exhaustively search small queries for
//!   the expert-vs-optimal latency headroom that motivates plan doctoring,
//!   on any registered workload (`--workload <name>`, default `joblite`).
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin probe -- --out BENCH_pr2.json
//! cargo run --release --bin probe -- --quick --out /tmp/ci.json \
//!     --baseline BENCH_pr2.json --max-regress 2.0
//! cargo run --release --bin probe -- --workload dsblite
//! ```

use criterion::Criterion;
use foss_bench::{micro_suite, parse_bench_json};
use foss_executor::CachingExecutor;
use foss_optimizer::{Icp, ALL_JOIN_METHODS};
use foss_workloads::{Workload, WorkloadSpec};
use std::time::Duration;

/// Benchmarks the regression gate guards: the FOSS serving hot path (AAM
/// inference, end-to-end PlanDoctor submits and the warm round trip over a
/// reused loopback connection) plus the chunked executor
/// operators — including the heavy-tail skewed hash join, the tier-2
/// fused pipeline and count mode on a wide plan.
const GUARDED: &[&str] = &[
    "aam/pair_inference",
    "exec/scan_filter",
    "exec/hash_join",
    "exec/fused_hot_path",
    "exec/count_wide",
    "exec/hash_join_skewed",
    "service/submit_throughput",
    "service/wire_roundtrip",
];

struct BenchArgs {
    out: String,
    quick: bool,
    baseline: Option<String>,
    max_regress: f64,
}

enum Mode {
    Bench(BenchArgs),
    Headroom { workload: String },
}

fn parse_args() -> Mode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = None;
    let mut quick = false;
    let mut baseline = None;
    let mut max_regress = 2.0;
    let mut workload: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                out = Some(argv.get(i + 1).expect("--out needs a path").clone());
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--baseline" => {
                baseline = Some(argv.get(i + 1).expect("--baseline needs a path").clone());
                i += 2;
            }
            "--max-regress" => {
                max_regress = argv
                    .get(i + 1)
                    .expect("--max-regress needs a factor")
                    .parse()
                    .expect("--max-regress must be a number");
                i += 2;
            }
            "--workload" => {
                workload = Some(argv.get(i + 1).expect("--workload needs a name").clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if out.is_none() && (quick || baseline.is_some()) {
        panic!("--quick/--baseline/--max-regress require --out <path> (bench mode)");
    }
    if out.is_some() && workload.is_some() {
        panic!("--workload selects the headroom workload; it has no effect with --out (the bench suite's workloads are fixed)");
    }
    match out {
        Some(out) => Mode::Bench(BenchArgs {
            out,
            quick,
            baseline,
            max_regress,
        }),
        None => Mode::Headroom {
            workload: workload.unwrap_or_else(|| "joblite".to_string()),
        },
    }
}

fn bench_mode(args: BenchArgs) {
    let mut c = if args.quick {
        Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_millis(500))
            .warm_up_time(Duration::from_millis(100))
    } else {
        Criterion::default()
            .sample_size(20)
            .measurement_time(Duration::from_secs(3))
            .warm_up_time(Duration::from_millis(500))
    };
    micro_suite(&mut c);
    c.write_json(&args.out).expect("write bench summary");
    println!("wrote {}", args.out);

    let Some(baseline_path) = args.baseline else {
        return;
    };
    let text = std::fs::read_to_string(&baseline_path).expect("read baseline");
    let baseline = parse_bench_json(&text);
    let mut failed = false;
    for r in c.results() {
        if !GUARDED.contains(&r.name.as_str()) {
            continue;
        }
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == &r.name) else {
            println!("{:<32} not in baseline {baseline_path}, skipping", r.name);
            continue;
        };
        let now = r.median_ns();
        let factor = now / base;
        let verdict = if factor > args.max_regress {
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<32} {now:>12.1} ns vs baseline {base:>12.1} ns ({factor:.2}x) {verdict}",
            r.name
        );
        failed |= factor > args.max_regress;
    }
    if failed {
        eprintln!(
            "perf regression gate failed (>{:.1}x baseline)",
            args.max_regress
        );
        std::process::exit(1);
    }
}

fn perms(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    fn rec(cur: &mut Vec<usize>, rem: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rem.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rem.len() {
            let v = rem.remove(i);
            cur.push(v);
            rec(cur, rem, out);
            cur.pop();
            rem.insert(i, v);
        }
    }
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

fn headroom_mode(workload: &str) {
    // Registry lookup: a typo exits with the list of valid names.
    let wl = Workload::by_name(
        workload,
        WorkloadSpec {
            seed: 4,
            scale: 0.15,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let exec = CachingExecutor::new(wl.db.clone(), *wl.optimizer.cost_model());
    let mut ratios = Vec::new();
    for q in wl
        .train
        .iter()
        .filter(|q| (3..=4).contains(&q.relation_count()))
        .take(12)
    {
        let expert = wl.optimizer.optimize(q).unwrap();
        let orig = exec.execute(q, &expert, None).unwrap().latency;
        let n = q.relation_count();
        let mut best = orig;
        for order in perms(n) {
            // methods: try all combos for n<=4 → 3^(n-1) ≤ 27
            let m = n - 1;
            for code in 0..3usize.pow(m as u32) {
                let mut methods = Vec::new();
                let mut c = code;
                for _ in 0..m {
                    methods.push(ALL_JOIN_METHODS[c % 3]);
                    c /= 3;
                }
                let icp = Icp::new(order.clone(), methods).unwrap();
                let plan = wl.optimizer.optimize_with_hint(q, &icp).unwrap();
                if let Ok(o) = exec.execute(q, &plan, Some(best)) {
                    if o.latency < best {
                        best = o.latency;
                    }
                }
            }
        }
        ratios.push(orig / best);
        println!(
            "q{} n={} expert={orig:.0} optimal={best:.0} ratio={:.2}",
            q.id.0,
            n,
            orig / best
        );
    }
    if ratios.is_empty() {
        println!("no 3-4-relation train queries in `{workload}`; nothing to probe");
        return;
    }
    let gm: f64 = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!("geo-mean expert/optimal = {:.2}", gm.exp());
}

fn main() {
    match parse_args() {
        Mode::Bench(args) => bench_mode(args),
        Mode::Headroom { workload } => headroom_mode(&workload),
    }
}
