//! Fig. 8 — known best plans: for each learned optimizer, the best plan it
//! ever produced per query across several runs, ranked by time savings
//! relative to the expert plan (`1 − lat_best / lat_expert`).

use foss_baselines::{BalsaLite, Bao, HybridQo, LearnedOptimizer, LogerLite};
use foss_common::{FossError, Result};
use foss_core::FossConfig;

use crate::table1::RunConfig;
use crate::{Experiment, FossAdapter, EVAL_TIMEOUT_FACTOR};

/// Savings series for one method, sorted descending (the figure's x-axis is
/// the per-method ranking).
#[derive(Debug, Clone)]
pub struct SavingsSeries {
    /// Method name.
    pub method: String,
    /// Sorted time-savings ratios, one per query (can be negative when even
    /// the best found plan is worse than the expert's).
    pub savings: Vec<f64>,
}

impl SavingsSeries {
    /// Queries with at least `threshold` savings (Fig. 8's ≥25% / ≥75%
    /// counts).
    pub fn count_at_least(&self, threshold: f64) -> usize {
        self.savings.iter().filter(|&&s| s >= threshold).count()
    }
}

/// Run each method `runs` times with different seeds; keep the best latency
/// observed per query.
pub fn run(workload: &str, cfg: &RunConfig, runs: usize) -> Result<Vec<SavingsSeries>> {
    let exp = Experiment::new(workload, cfg.spec)?;
    let queries = exp.workload.all_queries();
    let train = exp.workload.train.clone();
    let encoder = exp.encoder();
    let opt = exp.workload.optimizer.clone();
    let exec = exp.executor.clone();

    let method_names = ["Bao", "Balsa", "Loger", "HybridQO", "FOSS"];
    let mut all = Vec::new();
    for name in method_names {
        let mut best: Vec<f64> = vec![f64::INFINITY; queries.len()];
        let mut expert: Vec<f64> = vec![0.0; queries.len()];
        for run_idx in 0..runs {
            let seed = cfg.spec.seed ^ ((run_idx as u64 + 1) << 8);
            let mut method: Box<dyn LearnedOptimizer> = match name {
                "Bao" => Box::new(Bao::new(opt.clone(), exec.clone(), encoder.clone(), seed)),
                "Balsa" => Box::new(BalsaLite::new(
                    opt.clone(),
                    exec.clone(),
                    encoder.clone(),
                    seed,
                )),
                "Loger" => Box::new(LogerLite::new(
                    opt.clone(),
                    exec.clone(),
                    encoder.clone(),
                    seed,
                )),
                "HybridQO" => Box::new(HybridQo::new(
                    opt.clone(),
                    exec.clone(),
                    encoder.clone(),
                    seed,
                )),
                "FOSS" => {
                    let foss_cfg = FossConfig {
                        episodes_per_update: cfg.foss_episodes,
                        seed,
                        ..FossConfig::tiny()
                    };
                    Box::new(FossAdapter::new(exp.foss(foss_cfg)))
                }
                _ => unreachable!(),
            };
            for _ in 0..cfg.baseline_rounds.max(1) {
                method.train_round(&train)?;
            }
            for (i, q) in queries.iter().enumerate() {
                let expert_plan = exp.workload.optimizer.optimize(q)?;
                let e = exp.executor.execute(q, &expert_plan, None)?;
                expert[i] = e.latency;
                let plan = method.plan(q)?;
                let budget = e.latency * EVAL_TIMEOUT_FACTOR;
                let lat = match exp.executor.execute(q, &plan, Some(budget)) {
                    Ok(out) => out.latency,
                    Err(FossError::Timeout { .. }) => budget,
                    Err(e) => return Err(e),
                };
                if lat < best[i] {
                    best[i] = lat;
                }
            }
        }
        let mut savings: Vec<f64> = best
            .iter()
            .zip(&expert)
            .map(|(b, e)| 1.0 - b / e.max(1e-9))
            .collect();
        savings.sort_by(|a, b| b.total_cmp(a));
        all.push(SavingsSeries {
            method: name.to_string(),
            savings,
        });
    }
    Ok(all)
}

/// Render the ranking plus the paper's ≥25% / ≥75% counts.
pub fn render(workload: &str, series: &[SavingsSeries]) -> String {
    let mut out = format!("Fig.8 — known-best-plan time savings ranking on {workload}\n");
    for s in series {
        let head: Vec<String> = s
            .savings
            .iter()
            .take(8)
            .map(|v| format!("{:+.2}", v))
            .collect();
        out.push_str(&format!(
            "{:<10} ≥25%: {:>3} queries  ≥75%: {:>3} queries  top: [{}]\n",
            s.method,
            s.count_at_least(0.25),
            s.count_at_least(0.75),
            head.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_sorted_descending() {
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.05;
        let series = run("tpcdslite", &cfg, 1).unwrap();
        assert_eq!(series.len(), 5);
        for s in &series {
            for w in s.savings.windows(2) {
                assert!(w[0] >= w[1]);
            }
            assert!(s.savings.iter().all(|&v| v <= 1.0));
            assert!(s.count_at_least(0.25) >= s.count_at_least(0.75));
        }
    }
}
