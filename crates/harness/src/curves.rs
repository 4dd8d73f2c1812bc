//! Fig. 5 — training curves: test-split speedup relative to the expert as a
//! function of wall-clock training time, for each learned optimizer.

use std::time::Instant;

use foss_baselines::{BalsaLite, Bao, HybridQo, LearnedOptimizer, LogerLite};
use foss_common::Result;
use foss_core::FossConfig;

use crate::table1::RunConfig;
use crate::{evaluate_on, Experiment, FossAdapter};

/// One point on a training curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Cumulative training wall time (seconds).
    pub train_time_s: f64,
    /// Speedup of total test latency vs the expert (>1 is better).
    pub test_speedup: f64,
}

/// One method's curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method name.
    pub method: String,
    /// Snapshot after every training round.
    pub points: Vec<CurvePoint>,
}

/// Train every learned method for `rounds`, snapshotting test speedup after
/// each round.
pub fn run(workload: &str, cfg: &RunConfig, rounds: usize) -> Result<Vec<Curve>> {
    let exp = Experiment::new(workload, cfg.spec)?;
    let train = exp.workload.train.clone();
    let test = exp.workload.test.clone();
    let encoder = exp.encoder();
    let opt = exp.workload.optimizer.clone();
    let exec = exp.executor.clone();
    let seed = cfg.spec.seed;

    let foss_cfg = FossConfig {
        episodes_per_update: cfg.foss_episodes,
        seed,
        ..FossConfig::tiny()
    };
    let mut methods: Vec<Box<dyn LearnedOptimizer>> = vec![
        Box::new(Bao::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 1,
        )),
        Box::new(BalsaLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 2,
        )),
        Box::new(LogerLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 3,
        )),
        Box::new(HybridQo::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 4,
        )),
        Box::new(FossAdapter::new(exp.foss(foss_cfg))),
    ];

    let mut curves = Vec::new();
    for method in methods.iter_mut() {
        let mut points = Vec::with_capacity(rounds);
        let mut train_time = 0.0f64;
        for _ in 0..rounds {
            let t0 = Instant::now();
            method.train_round(&train)?;
            train_time += t0.elapsed().as_secs_f64();
            let eval = evaluate_on(&exp, &**method, &test)?;
            // Speedup on totals = 1 / WRL.
            points.push(CurvePoint {
                train_time_s: train_time,
                test_speedup: 1.0 / eval.wrl,
            });
        }
        curves.push(Curve {
            method: method.name().to_string(),
            points,
        });
    }
    Ok(curves)
}

/// Render curves as aligned text series.
pub fn render(workload: &str, curves: &[Curve]) -> String {
    let mut out = format!("Fig.5 — training curves on {workload} (test speedup vs expert)\n");
    for c in curves {
        out.push_str(&format!("{:<10}", c.method));
        for p in &c.points {
            out.push_str(&format!(
                "  t={:>6.1}s → {:>5.2}x",
                p.train_time_s, p.test_speedup
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_have_one_point_per_round() {
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.05;
        let curves = run("tpcdslite", &cfg, 2).unwrap();
        assert_eq!(curves.len(), 5);
        for c in &curves {
            assert_eq!(c.points.len(), 2);
            assert!(c.points[1].train_time_s >= c.points[0].train_time_s);
            assert!(c.points.iter().all(|p| p.test_speedup > 0.0));
        }
        assert!(render("tpcdslite", &curves).contains("FOSS"));
    }
}
