//! Table I — performance of all methods on all workloads — and the three
//! figures derived from the same runs: Fig. 4 (relative total-latency
//! speedups), Fig. 5 (training curves) and Fig. 6 (optimisation-time box
//! plots).

use std::time::Instant;

use foss_common::Result;

use crate::{evaluate_on, percentile, roster, Experiment, RunConfig, SplitEval};

/// One point on a training curve (Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Cumulative training wall time (seconds).
    pub train_time_s: f64,
    /// Speedup of total test latency vs the expert (>1 is better).
    pub test_speedup: f64,
}

/// One method's row of Table I for one workload.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Training-split evaluation.
    pub train: SplitEval,
    /// Test-split evaluation.
    pub test: SplitEval,
    /// Test-split evaluation after every training round (Fig. 5).
    pub curve: Vec<CurvePoint>,
}

/// All rows for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadTable {
    /// Workload name.
    pub workload: String,
    /// Per-method rows (PostgreSQL first, FOSS last).
    pub rows: Vec<MethodRow>,
}

/// Run Table I for one workload.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<WorkloadTable> {
    let exp = Experiment::new(name, cfg.spec)?;
    let train = &exp.workload.train;
    let test = &exp.workload.test;
    let mut rows = Vec::new();
    for mut m in roster(&exp, cfg, cfg.spec.seed) {
        let mut curve = Vec::with_capacity(m.rounds);
        let mut train_time_s = 0.0;
        for _ in 0..m.rounds {
            let t0 = Instant::now();
            m.optimizer.train_round(train)?;
            train_time_s += t0.elapsed().as_secs_f64();
            // Speedup on totals = 1 / WRL.
            curve.push(CurvePoint {
                train_time_s,
                test_speedup: 1.0 / evaluate_on(&exp, &*m.optimizer, test)?.wrl,
            });
        }
        rows.push(MethodRow {
            method: m.optimizer.name().to_string(),
            train: evaluate_on(&exp, &*m.optimizer, train)?,
            test: evaluate_on(&exp, &*m.optimizer, test)?,
            curve,
        });
    }
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
        "method          | wl         | WRL/tr  Σ/tr    GMRL/tr | WRL/te  Σ/te    GMRL/te | runtime(s) tr/te\n",
    );
    out.push_str(&"-".repeat(108));
    out.push('\n');
    for t in tables {
        for r in &t.rows {
            out.push_str(&format!(
                "{:<15} | {:<10} | {:>6.2}  {:>6.2}  {:>6.2}  | {:>6.2}  {:>6.2}  {:>6.2}  | {:>8.3} / {:>8.3}\n",
                r.method,
                t.workload,
                r.train.wrl,
                r.train.sigma_ratio,
                r.train.gmrl,
                r.test.wrl,
                r.test.sigma_ratio,
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

/// Fig. 5: each method's test speedup vs the expert after every training
/// round, against cumulative training wall time.
pub fn render_fig5(table: &WorkloadTable) -> String {
    let mut out = format!(
        "Fig.5 — training curves on {} (test speedup vs expert)\n",
        table.workload
    );
    for r in &table.rows {
        out.push_str(&format!("{:<10}", r.method));
        for p in &r.curve {
            out.push_str(&format!(
                "  t={:>6.1}s → {:>5.2}x",
                p.train_time_s, p.test_speedup
            ));
        }
        out.push('\n');
    }
    out
}

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

/// Fig. 6's boxes: each method's optimisation times over both splits.
pub fn opt_time_boxes(table: &WorkloadTable) -> Vec<OptTimeBox> {
    table
        .rows
        .iter()
        .map(|r| {
            let s: Vec<f64> = r
                .train
                .outcomes
                .iter()
                .chain(&r.test.outcomes)
                .map(|o| o.learned_opt_time)
                .collect();
            OptTimeBox {
                method: r.method.clone(),
                min: percentile(&s, 0.0),
                p25: percentile(&s, 25.0),
                p50: percentile(&s, 50.0),
                p75: percentile(&s, 75.0),
                max: percentile(&s, 100.0),
            }
        })
        .collect()
}

/// Fig. 6: the box-plot table.
pub fn render_fig6(workload: &str, boxes: &[OptTimeBox]) -> String {
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
    use std::sync::OnceLock;

    use super::*;

    /// One smoke run of `tpcdslite`, shared by the Table I, Fig. 5 and
    /// Fig. 6 checks below.
    fn smoke_table() -> &'static WorkloadTable {
        static TABLE: OnceLock<WorkloadTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut cfg = RunConfig::smoke();
            cfg.spec.scale = 0.05;
            cfg.rounds = 2;
            run_workload("tpcdslite", &cfg).unwrap()
        })
    }

    #[test]
    fn smoke_run_single_workload() {
        let table = smoke_table();
        assert_eq!(table.rows.len(), 6);
        assert_eq!(table.rows[0].method, "PostgreSQL");
        assert_eq!(table.rows[5].method, "FOSS");
        // The expert row scores GMRL exactly 1 against itself.
        assert!((table.rows[0].train.gmrl - 1.0).abs() < 1e-9);
        let text = render(std::slice::from_ref(table));
        assert!(text.contains("FOSS"));
        let fig4 = render_fig4(std::slice::from_ref(table));
        assert!(fig4.contains("vs"));
    }

    #[test]
    fn curves_have_one_point_per_round() {
        // Fig. 5: one point per trained round (FOSS's bootstrap is one).
        let table = smoke_table();
        for r in &table.rows {
            let rounds = if r.method == "FOSS" { 3 } else { 2 };
            assert_eq!(r.curve.len(), rounds, "{}", r.method);
            for w in r.curve.windows(2) {
                assert!(w[1].train_time_s >= w[0].train_time_s, "{}", r.method);
            }
            assert!(r.curve.iter().all(|p| p.test_speedup > 0.0));
        }
        assert!(render_fig5(table).contains("FOSS"));
    }

    #[test]
    fn boxes_are_ordered() {
        // Fig. 6: ordered quartiles over both splits.
        let boxes = opt_time_boxes(smoke_table());
        assert_eq!(boxes.len(), 6);
        for b in &boxes {
            assert!(b.min <= b.p25 && b.p25 <= b.p50);
            assert!(b.p50 <= b.p75 && b.p75 <= b.max);
        }
        // Learned optimizers pay model-inference overhead over the expert.
        let pg = boxes.iter().find(|b| b.method == "PostgreSQL").unwrap();
        let foss = boxes.iter().find(|b| b.method == "FOSS").unwrap();
        assert!(foss.p50 >= pg.p50);
        assert!(render_fig6("tpcdslite", &boxes).contains("FOSS"));
    }

    #[test]
    fn new_workloads_run_through_the_runner() {
        // The registry is the only name interpreter, so the runner takes
        // the new workloads; guard it on the cheapest configuration.
        let mut cfg = RunConfig::smoke();
        cfg.spec.scale = 0.04;
        cfg.foss_episodes = 4;
        for name in ["dsblite", "skewstress"] {
            let table = run_workload(name, &cfg).unwrap();
            assert_eq!(table.rows.len(), 6, "{name}");
            let boxes = opt_time_boxes(&table);
            assert!(boxes.iter().all(|b| b.max >= b.min), "{name}");
        }
    }
}
