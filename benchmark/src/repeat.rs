//! Child-process runs: one process per workload, and `--repeat-check`.
//!
//! `--repeat-check` runs the timed phase of each workload twice, back to
//! back, and fails unless set B is within each metric's own bound of set A
//! and every exact metric repeats to the bit. A timing that misses means the
//! run is too short to resolve its bound: lengthen the run, do not widen the
//! bound.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use foss_repro::service::Json;

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::workload::{WorkloadDef, WORKLOADS};
use crate::{Args, Phases};

/// Run `def` in a child process with this process's settings, echo what it
/// prints, and return its result object (its last line of standard output).
pub fn spawn_workload(def: &WorkloadDef, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", def.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    match args.phases {
        Phases::Timed => cmd.args(["--trace", "0"]),
        Phases::Traced => cmd.args(["--trace", "1"]),
        Phases::Both => &mut cmd,
    };
    if let Some(path) = &args.trace_out {
        cmd.args(["--trace-out", &format!("{path}.{}", def.name)]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {} process: {e}", def.name))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {} output: {e}", def.name))?;
        // Everything but the result line is passed on as it arrives.
        if let Some(previous) = last.replace(line) {
            println!("{previous}");
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the {} process: {e}", def.name))?;
    let result = last
        .as_deref()
        .and_then(|l| Json::parse(l).ok())
        .filter(|j| j.get("metrics").is_some())
        .ok_or_else(|| format!("the {} process ({status}) printed no result line", def.name))?;
    println!("{}: {result}", def.name);
    Ok(result)
}

fn value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `Err` says why set B does not repeat set A for this metric.
fn compare(def: &MetricDef, a: f64, b: f64) -> Result<(), String> {
    if def.exact {
        return (a.to_bits() == b.to_bits())
            .then_some(())
            .ok_or_else(|| format!("exact metric differs: {a} vs {b}"));
    }
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse = worsening(def, a, b);
    (worse <= bound).then_some(()).ok_or_else(|| {
        format!(
            "set B is {:.1}% worse than set A, bound {:.1}%",
            worse * 100.0,
            bound * 100.0
        )
    })
}

/// Two timed sets per workload, compared metric by metric.
pub fn check(args: &Args) -> Result<(Json, bool), String> {
    let args = Args {
        phases: Phases::Timed,
        ..args.clone()
    };
    let defs: Vec<&WorkloadDef> = match args.workload {
        Some(def) => vec![def],
        None => WORKLOADS.iter().collect(),
    };
    let mut ok = true;
    let mut report = Vec::new();
    for def in defs {
        let a = spawn_workload(def, &args)?;
        let b = spawn_workload(def, &args)?;
        ok &= [&a, &b]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let mut rows = Vec::new();
        for metric in END_TO_END {
            let (va, vb) = value(&a, metric.name)
                .zip(value(&b, metric.name))
                .ok_or_else(|| format!("{}: a set lacks {}", def.name, metric.name))?;
            let verdict = compare(metric, va, vb);
            println!(
                "repeat-check {}: {} A={va} B={vb} {} change {:+.2}% (bound {:.0}%{}) {}",
                def.name,
                metric.name,
                metric.unit,
                (vb - va) / va.abs() * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                if metric.exact { ", exact" } else { "" },
                match &verdict {
                    Ok(()) => "ok".to_string(),
                    Err(why) => format!("MISS: {why}"),
                },
            );
            ok &= verdict.is_ok();
            rows.push((
                metric.name,
                Json::obj(vec![
                    ("a", Json::num(va)),
                    ("b", Json::num(vb)),
                    ("ok", Json::Bool(verdict.is_ok())),
                ]),
            ));
        }
        report.push((def.name, Json::obj(rows)));
    }
    Ok((
        Json::obj(vec![
            ("correct", Json::Bool(ok)),
            ("repeat_check", Json::obj(report)),
        ]),
        ok,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn timings_may_improve_freely_but_worsen_only_within_their_bound() {
        let qps = find(END_TO_END, "wire_qps").unwrap();
        let bound = qps.bound.unwrap();
        assert!(compare(qps, 1000.0, 5000.0).is_ok(), "higher is better");
        assert!(compare(qps, 1000.0, 1000.0 * (1.0 - bound / 2.0)).is_ok());
        assert!(compare(qps, 1000.0, 1000.0 * (1.0 - bound * 2.0)).is_err());
        let p50 = find(END_TO_END, "wire_p50_us").unwrap();
        let bound = p50.bound.unwrap();
        assert!(compare(p50, 500.0, 100.0).is_ok(), "lower is better");
        assert!(compare(p50, 500.0, 500.0 * (1.0 + bound * 2.0)).is_err());
    }

    #[test]
    fn exact_metrics_must_repeat_to_the_bit() {
        let gmrl = find(END_TO_END, "train_test_gmrl").unwrap();
        assert!(gmrl.exact);
        assert!(compare(gmrl, 0.97, 0.97).is_ok());
        let one_ulp = f64::from_bits(0.97f64.to_bits() + 1);
        assert!(compare(gmrl, 0.97, one_ulp).is_err());
    }

    #[test]
    fn values_are_read_from_a_result_line() {
        let line = r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"wire_qps":{"value":12.5,"unit":"1/s"}}}"#;
        let result = Json::parse(line).unwrap();
        assert_eq!(value(&result, "wire_qps"), Some(12.5));
        assert_eq!(value(&result, "wire_p50_us"), None);
    }
}
