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
//!   exceeds `factor ×` its baseline median, or the run did not produce
//!   it). The factor must be a finite number above 0; a bad flag, or a
//!   baseline that is not a JSON array of `{"name", "median_ns"}` entries,
//!   exits 2 before anything is measured, and a baseline that holds none of
//!   the guarded benchmarks fails the gate.
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
/// operators — including the heavy-tail skewed hash join and count mode
/// on a wide plan.
const GUARDED: &[&str] = &[
    "aam/pair_inference",
    "exec/scan_filter",
    "exec/hash_join",
    "exec/count_wide",
    "exec/hash_join_skewed",
    "service/submit_throughput",
    "service/wire_roundtrip",
];

#[derive(Debug, PartialEq)]
struct BenchArgs {
    out: String,
    quick: bool,
    baseline: Option<String>,
    max_regress: f64,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Bench(BenchArgs),
    Headroom { workload: String },
}

/// The mode the arguments (after the program name) ask for, or why they
/// cannot work.
fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut out = None;
    let mut quick = false;
    let mut baseline = None;
    let mut max_regress = None;
    let mut workload = None;
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--out" => out = Some(value("a path")?),
            "--quick" => quick = true,
            "--baseline" => baseline = Some(value("a path")?),
            "--max-regress" => {
                let v = value("a factor")?;
                match v.trim().parse::<f64>() {
                    Ok(f) if f.is_finite() && f > 0.0 => max_regress = Some(f),
                    _ => {
                        return Err(format!(
                            "--max-regress must be a finite number above 0, got `{v}`"
                        ))
                    }
                }
            }
            "--workload" => workload = Some(value("a name")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match out {
        Some(_) if workload.is_some() => Err("--workload selects the headroom workload; it has no effect with --out (the bench suite's workloads are fixed)".into()),
        Some(out) => Ok(Mode::Bench(BenchArgs {
            out,
            quick,
            baseline,
            max_regress: max_regress.unwrap_or(2.0),
        })),
        None if quick || baseline.is_some() || max_regress.is_some() => {
            Err("--quick/--baseline/--max-regress require --out <path> (bench mode)".into())
        }
        None => Ok(Mode::Headroom {
            workload: workload.unwrap_or_else(|| "joblite".to_string()),
        }),
    }
}

/// The gate's report, one line per guarded benchmark, and whether it fails:
/// a guarded benchmark this run did not produce fails by name, one slower
/// than `max_regress ×` its baseline median fails as a regression, and one
/// the baseline lacks is skipped. A baseline that holds no guarded
/// benchmark at all fails: the gate would compare nothing.
fn gate(
    results: &[(String, f64)],
    baseline: &[(String, f64)],
    baseline_path: &str,
    max_regress: f64,
) -> (Vec<String>, bool) {
    let median =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns);
    let mut failed = false;
    let mut lines: Vec<String> = GUARDED
        .iter()
        .map(|&name| match (median(results, name), median(baseline, name)) {
            (None, _) => {
                failed = true;
                format!("{name:<32} MISSING: guarded but not produced by this run")
            }
            (Some(_), None) => format!("{name:<32} not in baseline {baseline_path}, skipping"),
            (Some(now), Some(base)) => {
                let factor = now / base;
                let regressed = factor > max_regress;
                failed |= regressed;
                let verdict = if regressed { "REGRESSION" } else { "ok" };
                format!("{name:<32} {now:>12.1} ns vs baseline {base:>12.1} ns ({factor:.2}x) {verdict}")
            }
        })
        .collect();
    if GUARDED.iter().all(|&name| median(baseline, name).is_none()) {
        failed = true;
        lines.push(format!(
            "baseline {baseline_path} holds none of the {} guarded benchmarks: nothing compared",
            GUARDED.len()
        ));
    }
    (lines, failed)
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
    // A baseline the gate cannot read fails before anything is measured.
    let baseline = args.baseline.map(|path| {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_bench_json(&text));
        match parsed {
            Ok(entries) => (path, entries),
            Err(e) => {
                eprintln!("probe: baseline {path}: {e}");
                std::process::exit(2);
            }
        }
    });
    println!("probe: kernel build {}", foss_nn::kernel_build());
    micro_suite(&mut c);
    c.write_json(&args.out).expect("write bench summary");
    println!("wrote {}", args.out);

    let Some((baseline_path, baseline)) = baseline else {
        return;
    };
    let results: Vec<(String, f64)> = c
        .results()
        .iter()
        .map(|r| (r.name.clone(), r.median_ns()))
        .collect();
    let (lines, failed) = gate(&results, &baseline, &baseline_path, args.max_regress);
    for line in lines {
        println!("{line}");
    }
    if failed {
        eprintln!(
            "perf regression gate failed (>{:.1}x baseline, a guarded benchmark missing, or none in the baseline)",
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&argv).unwrap_or_else(|msg| {
        eprintln!("probe: {msg}");
        std::process::exit(2);
    });
    match mode {
        Mode::Bench(args) => bench_mode(args),
        Mode::Headroom { workload } => headroom_mode(&workload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Mode, String> {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn args_parse_into_modes() {
        let bench = |quick, baseline: Option<&str>, max_regress| {
            Ok(Mode::Bench(BenchArgs {
                out: "x.json".into(),
                quick,
                baseline: baseline.map(String::from),
                max_regress,
            }))
        };
        let headroom = |w: &str| Ok(Mode::Headroom { workload: w.into() });
        let cases = [
            ("", headroom("joblite")),
            ("--workload dsblite", headroom("dsblite")),
            ("--out x.json", bench(false, None, 2.0)),
            ("--quick --out x.json", bench(true, None, 2.0)),
            (
                "--out x.json --baseline b.json --max-regress 1.5",
                bench(false, Some("b.json"), 1.5),
            ),
        ];
        for (argv, want) in cases {
            assert_eq!(parse(argv), want, "{argv}");
        }
    }

    #[test]
    fn bad_args_are_refused_with_a_reason() {
        let cases = [
            ("--out x.json --max-regress nan", "finite number above 0"),
            ("--out x.json --max-regress inf", "finite number above 0"),
            ("--out x.json --max-regress 0", "finite number above 0"),
            ("--out x.json --max-regress -2", "finite number above 0"),
            ("--out x.json --max-regress two", "finite number above 0"),
            ("--out x.json --max-regress", "--max-regress needs a factor"),
            ("--out", "--out needs a path"),
            ("--out x.json --baseline", "--baseline needs a path"),
            ("--workload", "--workload needs a name"),
            ("--bogus", "unknown argument `--bogus`"),
            ("--quick", "require --out"),
            ("--baseline b.json", "require --out"),
            ("--max-regress 2", "require --out"),
            ("--out x.json --workload joblite", "no effect with --out"),
        ];
        for (argv, reason) in cases {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(reason), "{argv}: {err}");
        }
    }

    #[test]
    fn gate_fails_on_regressions_and_on_missing_guarded_benchmarks() {
        let set = |scale: f64| -> Vec<(String, f64)> {
            GUARDED
                .iter()
                .map(|n| (n.to_string(), 100.0 * scale))
                .collect()
        };
        let (lines, failed) = gate(&set(1.5), &set(1.0), "b.json", 2.0);
        assert!(!failed);
        assert_eq!(lines.len(), GUARDED.len());
        assert!(gate(&set(2.5), &set(1.0), "b.json", 2.0).1);

        // A guarded name the run did not produce fails the gate by name.
        let mut partial = set(1.0);
        let dropped = partial.pop().unwrap().0;
        let (lines, failed) = gate(&partial, &set(1.0), "b.json", 2.0);
        assert!(failed);
        assert!(lines
            .iter()
            .any(|l| l.contains(&dropped) && l.contains("MISSING")));

        // One the baseline lacks is reported and skipped.
        let (lines, failed) = gate(&set(1.0), &partial, "b.json", 2.0);
        assert!(!failed);
        assert!(lines
            .iter()
            .any(|l| l.contains(&dropped) && l.contains("skipping")));
    }

    #[test]
    fn gate_fails_on_a_baseline_without_guarded_benchmarks() {
        let run: Vec<(String, f64)> = GUARDED.iter().map(|n| (n.to_string(), 100.0)).collect();
        let unrelated = vec![("nn/matmul_64x64".to_string(), 100.0)];
        for baseline in [Vec::new(), unrelated] {
            let (lines, failed) = gate(&run, &baseline, "b.json", 2.0);
            assert!(failed, "{baseline:?}");
            assert!(lines.iter().any(|l| l.contains("nothing compared")));
        }
    }

    #[test]
    fn committed_gate_baseline_holds_every_guarded_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr23.json");
        let baseline = parse_bench_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for name in GUARDED {
            assert!(baseline.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
