//! Fig. 8 — known best plans: for each method of the roster, the best plan
//! it ever produced per query across several runs, ranked by time savings
//! relative to the expert plan (`1 − lat_best / lat_expert`; PostgreSQL's
//! row is the zero line).

use foss_common::Result;

use crate::{evaluate_on, roster, Experiment, RunConfig};

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

/// Train the roster `runs` times, run `r` seeded `seed ^ (r << 8)` (run 0
/// is Table I's), and keep the best latency each method reached per query.
pub fn run(workload: &str, cfg: &RunConfig, runs: usize) -> Result<Vec<SavingsSeries>> {
    let exp = Experiment::new(workload, cfg.spec)?;
    let queries = exp.workload.all_queries();
    // Per method: its name and the best latency it reached per query.
    let mut best: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut expert = Vec::new();
    for run_idx in 0..runs {
        let seed = cfg.spec.seed ^ ((run_idx as u64) << 8);
        for (i, mut m) in roster(&exp, cfg, seed).into_iter().enumerate() {
            for _ in 0..m.rounds {
                m.optimizer.train_round(&exp.workload.train)?;
            }
            let eval = evaluate_on(&exp, &*m.optimizer, &queries)?;
            expert = eval.outcomes.iter().map(|o| o.expert_latency).collect();
            let latencies = eval.outcomes.iter().map(|o| o.learned_latency);
            match best.get_mut(i) {
                Some((_, b)) => b.iter_mut().zip(latencies).for_each(|(b, l)| *b = b.min(l)),
                None => best.push((m.optimizer.name(), latencies.collect())),
            }
        }
    }
    Ok(best
        .into_iter()
        .map(|(method, best)| {
            let mut savings: Vec<f64> = best
                .iter()
                .zip(&expert)
                .map(|(b, e)| 1.0 - b / e.max(1e-9))
                .collect();
            savings.sort_by(|a, b| b.total_cmp(a));
            SavingsSeries {
                method: method.to_string(),
                savings,
            }
        })
        .collect())
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
        assert_eq!(series.len(), 6);
        for s in &series {
            for w in s.savings.windows(2) {
                assert!(w[0] >= w[1]);
            }
            assert!(s.savings.iter().all(|&v| v <= 1.0));
            assert!(s.count_at_least(0.25) >= s.count_at_least(0.75));
        }
    }
}
