//! Wire-level, layer-attributed benchmark for the FOSS plan doctor.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
//!     [--trace-out <file>] [--out <file>] [--repeat-check]
//! ```
//!
//! With `--workload`, this process runs that workload: the timed phase
//! (`--trace 0`, end-to-end metrics, tracing off), the traced phase
//! (`--trace 1`, per-layer metrics) or, without `--trace`, both. Without
//! `--workload` it runs every workload as a child process of its own — so
//! peak-memory marks do not mix — and merges their results. The last line of
//! standard output is always one JSON object; the exit code is non-zero when
//! any output check failed. See `README.md` for the definitions.

mod load;
mod metrics;
mod oracle;
mod repeat;
mod setup;
mod spans;
mod stats;
mod timed;
mod traced;
mod workload;

use std::process::ExitCode;

use foss_repro::service::Json;

use crate::metrics::MetricSet;
use crate::workload::{WorkloadDef, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Which phases a workload process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phases {
    Timed,
    Traced,
    Both,
}

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    phases: Phases,
    trace_out: Option<String>,
    out: Option<String>,
    repeat_check: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        phases: Phases::Both,
        trace_out: None,
        out: None,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            args.repeat_check = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value (or is not a flag of this program)"))?;
        let number = || format!("{flag}: `{value}` is not a valid number");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}`; valid: {}", names.join(", "))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| number())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| number())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                args.phases = match value.as_str() {
                    "0" => Phases::Timed,
                    "1" => Phases::Traced,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value.clone()),
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Print every metric of `set` by name with its unit.
fn print_metrics(workload: &str, set: &MetricSet) -> Result<(), String> {
    for (def, value) in set.complete()? {
        println!(
            "{workload}: {} = {value} {} ({} is better)",
            def.name,
            def.unit,
            def.better.label()
        );
    }
    Ok(())
}

/// The result object of one workload process.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Run one workload in this process.
fn run_workload(def: &'static WorkloadDef, args: &Args) -> Result<(Json, bool), String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("{}: {}", def.name, def.why);
    println!(
        "{}: seed {}, {} s, {cores} cores available",
        def.name, args.seed, args.seconds
    );
    let mut attempted = 0;
    let mut failed = 0;
    let mut rendered = Vec::new();
    if args.phases != Phases::Traced {
        let r = timed::run(def, args.seed, args.seconds).map_err(|e| e.to_string())?;
        print_metrics(def.name, &r.metrics)?;
        attempted += r.attempted;
        failed += r.failed;
        rendered.extend(r.metrics.render()?);
    }
    if args.phases != Phases::Timed {
        let r =
            traced::run(def, args.seed, args.trace_out.as_deref()).map_err(|e| e.to_string())?;
        print_metrics(def.name, &r.metrics)?;
        attempted += r.attempted;
        failed += r.failed;
        rendered.extend(r.metrics.render()?);
    }
    let correct = failed == 0 && attempted > 0;
    Ok((result_line(correct, attempted, failed, rendered), correct))
}

/// Run every workload as a child process and merge the result lines.
fn run_all(args: &Args) -> Result<(Json, bool), String> {
    let mut merged = Vec::new();
    let mut all_correct = true;
    for def in WORKLOADS {
        let result = repeat::spawn_workload(def, args)?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        merged.push((def.name.to_string(), result));
    }
    Ok((
        Json::obj(vec![
            ("correct", Json::Bool(all_correct)),
            ("workloads", Json::Obj(merged)),
        ]),
        all_correct,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat_check {
        repeat::check(&args)
    } else if let Some(def) = args.workload {
        run_workload(def, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok((result, correct)) => {
            let line = result.to_string();
            if let Some(path) = &args.out {
                if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                    eprintln!("benchmark: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: FAILED — see the result line above");
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse(&argv(
            "--workload serve_skew --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.unwrap().name, "serve_skew");
        assert_eq!((args.seed, args.seconds), (7, 10.0));
        assert_eq!(args.phases, Phases::Traced);
        assert_eq!(parse(&argv("--trace 0")).unwrap().phases, Phases::Timed);
        assert_eq!(parse(&[]).unwrap().phases, Phases::Both);
    }

    #[test]
    fn bad_arguments_are_explained_not_guessed() {
        for (bad, needle) in [
            ("--workload nope", "serve_hot"),
            ("--seed minus", "not a valid number"),
            ("--seconds 0", "(0, 3600]"),
            ("--trace 2", "0 or 1"),
            ("--frobnicate 1", "unknown flag"),
            ("--seed", "needs a value"),
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(err.contains(needle), "`{bad}` → `{err}`");
        }
    }
}
