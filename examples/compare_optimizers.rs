//! Head-to-head of all six systems on one benchmark — a one-workload
//! miniature of the paper's Table I.
//!
//! ```sh
//! cargo run --release --example compare_optimizers -- tpcdslite
//! ```

use foss_repro::prelude::*;

fn main() -> Result<()> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tpcdslite".into());
    let mut cfg = foss_repro::harness::RunConfig::smoke();
    cfg.spec.scale = 0.12;
    cfg.rounds = 2;
    cfg.foss_episodes = 40;
    eprintln!("running {name} with {cfg:?} ...");
    let table = foss_repro::harness::table1::run_workload(&name, &cfg)?;
    println!(
        "{}",
        foss_repro::harness::table1::render(std::slice::from_ref(&table))
    );
    println!("{}", foss_repro::harness::table1::render_fig4(&[table]));
    Ok(())
}
