//! Table II, Fig. 7 and Fig. 9 — design-choice ablations of FOSS.

use std::time::Instant;

use foss_baselines::LearnedOptimizer;
use foss_common::Result;
use foss_core::FossConfig;

use crate::{evaluate_on, foss_config, Experiment, FossAdapter, RunConfig};

/// The paper's eight configurations (Table II).
pub fn configurations(base_episodes: usize, seed: u64) -> Vec<(String, FossConfig)> {
    let base = foss_config(base_episodes, seed);
    vec![
        (
            "2-Maxsteps".into(),
            FossConfig {
                max_steps: 2,
                ..base.clone()
            },
        ),
        ("3-Maxsteps (FOSS)".into(), base.clone()),
        (
            "4-Maxsteps".into(),
            FossConfig {
                max_steps: 4,
                ..base.clone()
            },
        ),
        (
            "5-Maxsteps".into(),
            FossConfig {
                max_steps: 5,
                ..base.clone()
            },
        ),
        (
            "Off-Simulated".into(),
            FossConfig {
                use_simulated_env: false,
                // The paper cuts episodes to 200/900 of the default to keep
                // real-environment training feasible; same ratio here.
                episodes_per_update: (base_episodes * 2 / 9).max(2),
                ..base.clone()
            },
        ),
        (
            "Off-Penalty".into(),
            FossConfig {
                penalty_gamma: 0.0,
                ..base.clone()
            },
        ),
        (
            "Off-Validation".into(),
            FossConfig {
                validate_promising: false,
                ..base.clone()
            },
        ),
        (
            "2-Agents".into(),
            FossConfig {
                num_agents: 2,
                ..base
            },
        ),
    ]
}

/// One Table II row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration name.
    pub name: String,
    /// Wall-clock training time (seconds).
    pub training_time_s: f64,
    /// Mean per-query optimisation time (µs).
    pub opt_time_us: f64,
    /// GMRL on the full workload.
    pub gmrl: f64,
    /// GMRL after each training iteration (Fig. 9 curve).
    pub gmrl_curve: Vec<f64>,
    /// Distribution of the selected plan's step index (Fig. 7), indexed by
    /// step (0 = original plan kept).
    pub step_histogram: Vec<usize>,
}

/// Run every configuration on `workload`.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Vec<AblationRow>> {
    let exp = Experiment::new(workload, cfg.spec)?;
    let train = exp.workload.train.clone();
    let all = exp.workload.all_queries();
    let mut rows = Vec::new();
    for (name, foss_cfg) in configurations(cfg.foss_episodes, cfg.spec.seed) {
        let max_steps = foss_cfg.max_steps;
        let mut adapter = FossAdapter::new(exp.foss(foss_cfg));
        let t0 = Instant::now();
        let mut gmrl_curve = Vec::new();
        for _ in 0..cfg.foss_rounds() {
            adapter.train_round(&train)?;
            let eval = evaluate_on(&exp, &adapter, &train)?;
            gmrl_curve.push(eval.gmrl);
        }
        let training_time_s = t0.elapsed().as_secs_f64();
        let eval = evaluate_on(&exp, &adapter, &all)?;
        // Fig. 7: where on the episode the selected plan sits — read from
        // the adapter's published snapshot, like the serving path does.
        let snapshot = adapter.snapshot().clone();
        let mut step_histogram = vec![0usize; max_steps + 1];
        for q in &all {
            let inf = snapshot.optimize_detailed(q)?;
            step_histogram[inf.selected_step.min(max_steps)] += 1;
        }
        let opt_time_us = eval
            .outcomes
            .iter()
            .map(|o| o.learned_opt_time)
            .sum::<f64>()
            / eval.outcomes.len().max(1) as f64;
        rows.push(AblationRow {
            name,
            training_time_s,
            opt_time_us,
            gmrl: eval.gmrl,
            gmrl_curve,
            step_histogram,
        });
    }
    Ok(rows)
}

/// Render Table II.
pub fn render_table2(workload: &str, rows: &[AblationRow]) -> String {
    let mut out = format!(
        "Table II — configuration comparison on {workload}\n{:<20} {:>12} {:>14} {:>8}\n",
        "experiment", "train time(s)", "opt time(µs)", "GMRL"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>12.1} {:>14.0} {:>8.3}\n",
            r.name, r.training_time_s, r.opt_time_us, r.gmrl
        ));
    }
    out
}

/// Render Fig. 9 (GMRL per iteration).
pub fn render_fig9(workload: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("Fig.9 — GMRL during training on {workload}\n");
    for r in rows {
        let pts: Vec<String> = r.gmrl_curve.iter().map(|g| format!("{g:.3}")).collect();
        out.push_str(&format!("{:<20} [{}]\n", r.name, pts.join(", ")));
    }
    out
}

/// Render Fig. 7 (step distribution for the maxsteps configurations only).
pub fn render_fig7(workload: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("Fig.7 — selected-plan step distribution on {workload}\n");
    for r in rows.iter().filter(|r| r.name.contains("Maxsteps")) {
        let pts: Vec<String> = r
            .step_histogram
            .iter()
            .enumerate()
            .map(|(s, c)| format!("step{s}:{c}"))
            .collect();
        out.push_str(&format!("{:<20} {}\n", r.name, pts.join("  ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_configurations_match_table2() {
        let cfgs = configurations(90, 1);
        assert_eq!(cfgs.len(), 8);
        let names: Vec<&str> = cfgs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"3-Maxsteps (FOSS)"));
        assert!(names.contains(&"Off-Simulated"));
        assert!(names.contains(&"2-Agents"));
        // Off-Simulated cuts episodes by the paper's 900→200 ratio.
        let off_sim = &cfgs.iter().find(|(n, _)| n == "Off-Simulated").unwrap().1;
        assert_eq!(off_sim.episodes_per_update, 20);
        assert!(!off_sim.use_simulated_env);
        let off_pen = &cfgs.iter().find(|(n, _)| n == "Off-Penalty").unwrap().1;
        assert_eq!(off_pen.penalty_gamma, 0.0);
    }

    #[test]
    fn ablation_smoke_runs_two_configs() {
        // Run only the cheapest two configurations through the machinery by
        // shrinking the workload hard.
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.04;
        cfg.foss_episodes = 4;
        let exp = Experiment::new("tpcdslite", cfg.spec).unwrap();
        let train: Vec<_> = exp.workload.train.iter().take(2).cloned().collect();
        for (name, foss_cfg) in configurations(cfg.foss_episodes, 1).into_iter().take(2) {
            let mut adapter = FossAdapter::new(exp.foss(foss_cfg));
            adapter.train_round(&train).unwrap();
            let eval = evaluate_on(&exp, &adapter, &train).unwrap();
            assert!(eval.gmrl > 0.0, "{name} failed");
        }
    }
}
