//! Table I — performance of all methods on all workloads — and Fig. 4,
//! which is derived from the same runs (relative total-latency speedups).

use foss_baselines::{BalsaLite, Bao, HybridQo, LearnedOptimizer, LogerLite, PostgresBaseline};
use foss_common::Result;
use foss_core::FossConfig;
use foss_workloads::WorkloadSpec;

use crate::{evaluate_on, Experiment, FossAdapter, SplitEval};

/// One method's row of Table I for one workload.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Training-split evaluation.
    pub train: SplitEval,
    /// Test-split evaluation.
    pub test: SplitEval,
}

/// All rows for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadTable {
    /// Workload name.
    pub workload: String,
    /// Per-method rows (PostgreSQL first, FOSS last).
    pub rows: Vec<MethodRow>,
}

/// Knobs bounding experiment cost.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed + scale.
    pub spec: WorkloadSpec,
    /// Training rounds for the baselines.
    pub baseline_rounds: usize,
    /// FOSS training iterations (after bootstrap).
    pub foss_iterations: usize,
    /// Simulated episodes per FOSS iteration.
    pub foss_episodes: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec::default(),
            baseline_rounds: 4,
            foss_iterations: 4,
            foss_episodes: 120,
        }
    }
}

impl RunConfig {
    /// A configuration small enough for CI smoke runs.
    pub fn smoke() -> Self {
        Self {
            spec: WorkloadSpec {
                seed: 42,
                scale: 0.08,
            },
            baseline_rounds: 1,
            foss_iterations: 1,
            foss_episodes: 12,
        }
    }
}

/// Run Table I for one workload.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<WorkloadTable> {
    let exp = Experiment::new(name, cfg.spec)?;
    let train = exp.workload.train.clone();
    let test = exp.workload.test.clone();
    let encoder = exp.encoder();
    let opt = exp.workload.optimizer.clone();
    let exec = exp.executor.clone();
    let seed = cfg.spec.seed;

    let mut methods: Vec<Box<dyn LearnedOptimizer>> = vec![
        Box::new(PostgresBaseline::new(opt.clone())),
        Box::new(Bao::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0xBA0,
        )),
        Box::new(BalsaLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0xBA15A,
        )),
        Box::new(LogerLite::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0x106E5,
        )),
        Box::new(HybridQo::new(
            opt.clone(),
            exec.clone(),
            encoder.clone(),
            seed ^ 0x4B1D,
        )),
    ];

    let mut rows = Vec::new();
    for method in methods.iter_mut() {
        for _ in 0..cfg.baseline_rounds {
            method.train_round(&train)?;
        }
        rows.push(MethodRow {
            method: method.name().to_string(),
            train: evaluate_on(&exp, &**method, &train)?,
            test: evaluate_on(&exp, &**method, &test)?,
        });
    }

    // FOSS.
    let foss_cfg = FossConfig {
        episodes_per_update: cfg.foss_episodes,
        seed,
        ..FossConfig::tiny()
    };
    let mut foss = FossAdapter::new(exp.foss(foss_cfg));
    for _ in 0..=cfg.foss_iterations {
        foss.train_round(&train)?;
    }
    rows.push(MethodRow {
        method: "FOSS".to_string(),
        train: evaluate_on(&exp, &foss, &train)?,
        test: evaluate_on(&exp, &foss, &test)?,
    });

    Ok(WorkloadTable {
        workload: name.to_string(),
        rows,
    })
}

/// Run Table I across every registered workload.
pub fn run(cfg: &RunConfig) -> Result<Vec<WorkloadTable>> {
    foss_workloads::WORKLOAD_NAMES
        .iter()
        .map(|n| run_workload(n, cfg))
        .collect()
}

/// Render the table in the paper's layout.
pub fn render(tables: &[WorkloadTable]) -> String {
    let mut out = String::new();
    out.push_str(
        "method          | wl         | WRL/tr  GMRL/tr | WRL/te  GMRL/te | runtime(s) tr/te\n",
    );
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for t in tables {
        for r in &t.rows {
            out.push_str(&format!(
                "{:<15} | {:<10} | {:>6.2}  {:>6.2}  | {:>6.2}  {:>6.2}  | {:>8.3} / {:>8.3}\n",
                r.method,
                t.workload,
                r.train.wrl,
                r.train.gmrl,
                r.test.wrl,
                r.test.gmrl,
                r.train.runtime_s,
                r.test.runtime_s,
            ));
        }
    }
    out
}

/// Fig. 4: relative speedup of FOSS over each method per workload
/// (`WRL_method / WRL_FOSS` on total latency, train and test).
pub fn render_fig4(tables: &[WorkloadTable]) -> String {
    let mut out = String::new();
    out.push_str("Fig.4 — relative speedup of FOSS vs other methods (total latency)\n");
    for t in tables {
        let foss = t
            .rows
            .iter()
            .find(|r| r.method == "FOSS")
            .expect("FOSS row present");
        for r in &t.rows {
            if r.method == "FOSS" {
                continue;
            }
            out.push_str(&format!(
                "{:<10} vs {:<12} train {:>6.2}x   test {:>6.2}x\n",
                t.workload,
                r.method,
                r.train.runtime_s / foss.train.runtime_s.max(1e-9),
                r.test.runtime_s / foss.test.runtime_s.max(1e-9),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_single_workload() {
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.05;
        let table = run_workload("tpcdslite", &cfg).unwrap();
        assert_eq!(table.rows.len(), 6);
        assert_eq!(table.rows[0].method, "PostgreSQL");
        assert_eq!(table.rows[5].method, "FOSS");
        // The expert row scores GMRL exactly 1 against itself.
        assert!((table.rows[0].train.gmrl - 1.0).abs() < 1e-9);
        let text = render(std::slice::from_ref(&table));
        assert!(text.contains("FOSS"));
        let fig4 = render_fig4(&[table]);
        assert!(fig4.contains("vs"));
    }
}
