//! Full FOSS training run on JOB-lite with per-iteration diagnostics and a
//! final train/test evaluation — a miniature of the paper's Fig. 5 loop.
//! Every evaluation scores the plans the service would serve
//! ([`FossAdapter`] + [`evaluate_on`], the harness's one scoring loop).
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
    let exp = Experiment::new(
        "joblite",
        WorkloadSpec {
            seed: 42,
            scale: 0.12,
        },
    )?;
    let cfg = FossConfig {
        episodes_per_update: 90,
        promising_per_update: 12,
        random_validation_per_update: 4,
        ..FossConfig::tiny()
    };
    let mut foss = FossAdapter::new(exp.foss(cfg));
    let (train, test) = (&exp.workload.train, &exp.workload.test);

    println!(
        "bootstrap: executing expert + doctored candidates for {} queries",
        train.len()
    );
    foss.train_round(train)?;
    let report = foss.last_report().expect("a round ran");
    println!(
        "  buffer={} plans, {} real executions, AAM loss {:.3} acc {:.2}",
        report.buffer_plans, report.plans_executed, report.aam_loss, report.aam_accuracy
    );
    println!("  phases: {}", report.phases);

    for i in 1..=iters {
        foss.train_round(train)?;
        let report = foss.last_report().expect("a round ran");
        // Evaluate on the test split after each iteration.
        let eval = evaluate_on(&exp, &foss, test)?;
        println!(
            "iter {i}: reward={:+.2} aam_loss={:.3} acc={:.2} buffer={} | test speedup {:.2}x",
            report.mean_reward,
            report.aam_loss,
            report.aam_accuracy,
            report.buffer_plans,
            eval.sigma_ratio
        );
        println!("  phases: {}", report.phases);
    }

    // Final per-split totals.
    for (name, queries) in [("train", train), ("test", test)] {
        let eval = evaluate_on(&exp, &foss, queries)?;
        let wins = eval
            .outcomes
            .iter()
            .filter(|o| o.learned_latency < o.expert_latency * 0.95)
            .count();
        println!(
            "{name}: total speedup {:.2}x over the expert (GMRL {:.3}); beat it on {wins}/{} queries",
            eval.sigma_ratio,
            eval.gmrl,
            queries.len()
        );
    }
    Ok(())
}
