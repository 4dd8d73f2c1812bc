//! The experiment runner: `repro <run>` trains the method roster once and
//! prints every paper artefact derived from that training.
//!
//! ```text
//! FOSS_SCALE=0.05 FOSS_ROUNDS=2 cargo run --release --bin repro -- table1
//! ```
//!
//! `FOSS_SCALE` and `FOSS_ROUNDS` size the run (see the crate docs). An
//! unknown run name or a bad variable exits 2 before anything is trained.

use foss_common::Result;
use foss_harness::{ablation, best_plans, table1, RunConfig};

/// The workload the JOB-only artefacts (Table II, Figs. 6–9) run on.
const JOB: &str = "joblite";

/// The runs, each with the artefacts it prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Table1,
    Table2,
    Fig8,
}

const RUNS: &[(&str, Run, &str)] = &[
    ("table1", Run::Table1, "Table I and Figs. 4, 5 and 6"),
    ("table2", Run::Table2, "Table II and Figs. 7 and 9"),
    ("fig8", Run::Fig8, "Fig. 8, over three seeds"),
];

/// The run the command line names (the arguments after the program name).
fn parse_run(args: &[String]) -> std::result::Result<Run, String> {
    let found = match args {
        [name] => RUNS.iter().find(|(n, ..)| n == name),
        _ => None,
    };
    found.map(|&(_, run, _)| run).ok_or_else(|| {
        let mut msg = match args {
            [name] => format!("repro: unknown run `{name}`\n"),
            _ => "repro: expected one run name\n".to_string(),
        };
        msg.push_str("usage: repro <run>, where <run> prints:\n");
        for (name, _, prints) in RUNS {
            msg.push_str(&format!("  {name:<7} {prints}\n"));
        }
        msg
    })
}

fn table1(cfg: &RunConfig) -> Result<()> {
    let tables = table1::run(cfg)?;
    println!("{}", table1::render(&tables));
    println!("{}", table1::render_fig4(&tables));
    for t in &tables {
        println!("{}", table1::render_fig5(t));
    }
    if let Some(job) = tables.iter().find(|t| t.workload == JOB) {
        println!("{}", table1::render_fig6(JOB, &table1::opt_time_boxes(job)));
    }
    Ok(())
}

fn table2(cfg: &RunConfig) -> Result<()> {
    let rows = ablation::run(JOB, cfg)?;
    println!("{}", ablation::render_table2(JOB, &rows));
    println!("{}", ablation::render_fig7(JOB, &rows));
    println!("{}", ablation::render_fig9(JOB, &rows));
    Ok(())
}

fn fig8(cfg: &RunConfig) -> Result<()> {
    let series = best_plans::run(JOB, cfg, 3)?;
    println!("{}", best_plans::render(JOB, &series));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_run(&args).unwrap_or_else(|msg| {
        eprint!("{msg}");
        std::process::exit(2);
    });
    let cfg = foss_bench::run_config_from_env();
    eprintln!("repro {} with {cfg:?} ...", args[0]);
    let done = match run {
        Run::Table1 => table1(&cfg),
        Run::Table2 => table2(&cfg),
        Run::Fig8 => fig8(&cfg),
    };
    if let Err(e) = done {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_names_parse_and_refusals_list_every_run() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_run(&args(&["table1"])), Ok(Run::Table1));
        assert_eq!(parse_run(&args(&["table2"])), Ok(Run::Table2));
        assert_eq!(parse_run(&args(&["fig8"])), Ok(Run::Fig8));
        let refused: [&[&str]; 8] = [
            &["fig4"],
            &["fig7"],
            &["fig9"],
            &[""],
            &["nope"],
            &[],
            &["table1", "table2"],
            &["TABLE1"],
        ];
        for argv in refused {
            let msg = parse_run(&args(argv)).unwrap_err();
            for (name, _, prints) in RUNS {
                assert!(
                    msg.contains(name) && msg.contains(prints),
                    "{argv:?}: {msg}"
                );
            }
            if let [name] = argv {
                assert!(msg.contains(&format!("`{name}`")), "{argv:?}: {msg}");
            }
        }
    }
}
