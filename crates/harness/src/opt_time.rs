//! Fig. 6 — optimisation-time distribution (box plots) on the JOB workload:
//! time from query input to execution-plan output, per method.

use foss_baselines::{BalsaLite, Bao, HybridQo, LearnedOptimizer, LogerLite, PostgresBaseline};
use foss_common::Result;
use foss_core::FossConfig;

use crate::table1::RunConfig;
use crate::{evaluate_on, percentile, Experiment, FossAdapter};

/// Box-plot summary of per-query optimisation times (µs).
#[derive(Debug, Clone)]
pub struct OptTimeBox {
    /// Method name.
    pub method: String,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

/// Measure optimisation times on the full workload for every method.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Vec<OptTimeBox>> {
    let exp = Experiment::new(workload, cfg.spec)?;
    let queries = exp.workload.all_queries();
    let train = exp.workload.train.clone();
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
        Box::new(PostgresBaseline::new(opt.clone())),
        Box::new(Bao::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 21,
        )),
        Box::new(BalsaLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 22,
        )),
        Box::new(LogerLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 23,
        )),
        Box::new(HybridQo::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 24,
        )),
        Box::new(FossAdapter::new(exp.foss(foss_cfg))),
    ];

    let mut boxes = Vec::new();
    for method in methods.iter_mut() {
        for _ in 0..cfg.baseline_rounds.min(1) {
            method.train_round(&train)?;
        }
        let eval = evaluate_on(&exp, &**method, &queries)?;
        let s = &eval.opt_times_us;
        boxes.push(OptTimeBox {
            method: method.name().to_string(),
            min: percentile(s, 0.0),
            p25: percentile(s, 25.0),
            p50: percentile(s, 50.0),
            p75: percentile(s, 75.0),
            max: percentile(s, 100.0),
        });
    }
    Ok(boxes)
}

/// Render the box-plot table.
pub fn render(workload: &str, boxes: &[OptTimeBox]) -> String {
    let mut out =
        format!("Fig.6 — optimisation time on {workload} (µs): min / p25 / p50 / p75 / max\n");
    for b in boxes {
        out.push_str(&format!(
            "{:<12} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>10.0}\n",
            b.method, b.min, b.p25, b.p50, b.p75, b.max,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workloads_run_through_the_runner() {
        // The registry is the only name interpreter, so every runner takes
        // the new workloads; guard it on the cheapest one.
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.04;
        cfg.foss_episodes = 4;
        for name in ["dsblite", "skewstress"] {
            let boxes = run(name, &cfg).unwrap();
            assert_eq!(boxes.len(), 6, "{name}");
            assert!(boxes.iter().all(|b| b.max >= b.min), "{name}");
        }
    }

    #[test]
    fn boxes_are_ordered() {
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.05;
        let boxes = run("tpcdslite", &cfg).unwrap();
        assert_eq!(boxes.len(), 6);
        for b in &boxes {
            assert!(b.min <= b.p25 && b.p25 <= b.p50);
            assert!(b.p50 <= b.p75 && b.p75 <= b.max);
        }
        // Learned optimizers pay model-inference overhead over the expert.
        let pg = boxes.iter().find(|b| b.method == "PostgreSQL").unwrap();
        let foss = boxes.iter().find(|b| b.method == "FOSS").unwrap();
        assert!(foss.p50 >= pg.p50);
    }
}
