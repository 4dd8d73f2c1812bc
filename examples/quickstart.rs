//! Quickstart: build a workload, let the expert plan a query, let FOSS
//! doctor that plan, and compare true latencies.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use foss_repro::core::DEFAULT_MIN_CONFIDENCE;
use foss_repro::prelude::*;

fn main() -> Result<()> {
    // 1. Materialise the JOB-lite benchmark (IMDb-shaped synthetic data).
    let spec = WorkloadSpec {
        seed: 42,
        scale: 0.15,
    };
    let wl = joblite::build(spec)?;
    println!(
        "JOB-lite: {} tables, {} train / {} test queries",
        wl.table_count(),
        wl.train.len(),
        wl.test.len()
    );

    // 2. Pick a query and show the expert's plan.
    let query = wl.train.iter().max_by_key(|q| q.relation_count()).unwrap();
    println!("\nquery (template {}): {}", query.template, query);
    let expert_plan = wl.optimizer.optimize(query)?;
    println!("\nexpert plan:\n{}", expert_plan.explain());

    // 3. Train FOSS briefly on the training workload.
    let executor = std::sync::Arc::new(CachingExecutor::new(
        wl.db.clone(),
        *wl.optimizer.cost_model(),
    ));
    let cfg = FossConfig {
        episodes_per_update: 60,
        ..FossConfig::tiny()
    };
    let mut foss = Foss::new(
        wl.optimizer.clone(),
        executor.clone(),
        wl.max_relations,
        wl.table_rows(),
        cfg,
    );
    println!("training FOSS (bootstrap + 2 iterations)...");
    for report in foss.train(&wl.train, 2)? {
        println!(
            "  iter {}: aam_loss={:.3} aam_acc={:.2} buffer={} executed={}",
            report.iteration,
            report.aam_loss,
            report.aam_accuracy,
            report.buffer_plans,
            report.plans_executed
        );
    }

    // 4. Let a snapshot of the trained doctor decide what to serve — the
    //    doctored plan, or the expert plan when the AAM's verdict is below
    //    the confidence floor — and compare true latencies.
    let decision = foss
        .snapshot()
        .decide(query, &expert_plan, DEFAULT_MIN_CONFIDENCE)?;
    let inference = &decision.inference;
    println!(
        "\nFOSS plan (selected at step {} of {}, AAM confidence {}):\n{}",
        inference.selected_step,
        foss.config().max_steps,
        inference.aam_confidence,
        inference.plan.explain()
    );
    let verdict = match (decision.low_confidence, inference.selected_step) {
        (true, _) => "rejected, the expert plan is served",
        (false, 0) => "nothing to judge, the doctor kept the expert plan",
        (false, _) => "passed, the doctored plan is served",
    };
    println!("confidence floor {DEFAULT_MIN_CONFIDENCE}: {verdict}");
    let expert_lat = executor.execute(query, &expert_plan, None)?.latency;
    let foss_lat = executor.execute(query, &decision.plan, None)?.latency;
    println!("expert latency: {expert_lat:.0} work units");
    println!(
        "FOSS latency:   {foss_lat:.0} work units ({:.2}x)",
        expert_lat / foss_lat
    );
    Ok(())
}
