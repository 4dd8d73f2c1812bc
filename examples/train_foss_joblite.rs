//! Full FOSS training run on JOB-lite with per-iteration diagnostics and a
//! final train/test evaluation — a miniature of the paper's Fig. 5 loop.
//!
//! ```sh
//! FOSS_ITERS=5 cargo run --release --example train_foss_joblite
//! ```

use foss_repro::prelude::*;

fn main() -> Result<()> {
    let iters: usize = std::env::var("FOSS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let wl = joblite::build(WorkloadSpec {
        seed: 42,
        scale: 0.12,
    })?;
    let exp_executor = std::sync::Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let cfg = FossConfig {
        episodes_per_update: 90,
        promising_per_update: 12,
        random_validation_per_update: 4,
        ..FossConfig::tiny()
    };
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        exp_executor.clone(),
        wl.max_relations,
        wl.table_rows(),
        cfg,
    );

    println!(
        "bootstrap: executing expert + doctored candidates for {} queries",
        wl.train.len()
    );
    let report = foss.bootstrap(&wl.train, 1)?;
    println!(
        "  buffer={} plans, {} real executions, AAM loss {:.3} acc {:.2}",
        report.buffer_plans, report.plans_executed, report.aam_loss, report.aam_accuracy
    );
    println!("  phases: {}", report.phases);

    for i in 1..=iters {
        let report = foss.train_iteration(&wl.train, i)?;
        // Evaluate on the test split after each iteration.
        let (mut learned, mut expert) = (0.0, 0.0);
        for q in &wl.test {
            let plan = foss.optimize(q)?;
            let e = wl.optimizer.optimize(q)?;
            learned += exp_executor.execute(q, &plan, None)?.latency;
            expert += exp_executor.execute(q, &e, None)?.latency;
        }
        println!(
            "iter {i}: reward={:+.2} aam_loss={:.3} acc={:.2} buffer={} | test speedup {:.2}x",
            report.mean_reward,
            report.aam_loss,
            report.aam_accuracy,
            report.buffer_plans,
            expert / learned
        );
        println!("  phases: {}", report.phases);
    }

    // Final per-split totals.
    for (name, queries) in [("train", &wl.train), ("test", &wl.test)] {
        let (mut learned, mut expert) = (0.0, 0.0);
        let mut wins = 0usize;
        for q in queries.iter() {
            let plan = foss.optimize(q)?;
            let e = wl.optimizer.optimize(q)?;
            let l = exp_executor.execute(q, &plan, None)?.latency;
            let x = exp_executor.execute(q, &e, None)?.latency;
            learned += l;
            expert += x;
            if l < x * 0.95 {
                wins += 1;
            }
        }
        println!(
            "{name}: total speedup {:.2}x over the expert; beat it on {wins}/{} queries",
            expert / learned,
            queries.len()
        );
    }
    Ok(())
}
