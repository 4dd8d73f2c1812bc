//! Clap-less command-line parsing for the `plan-doctor` binary.
//!
//! The binary has three subcommands over one shared flag vocabulary:
//!
//! * `bench` — train on a workload, then hammer the in-process service
//!   from worker threads (the original behaviour; also the default when
//!   the first argument is a `--flag`, so existing invocations keep
//!   working).
//! * `serve` — expose the service over a socket
//!   ([`foss_service::PlanServer`]), either training first or booting
//!   serving-only from a saved snapshot (`--snapshot`).
//! * `load` — closed-loop load generator driving a running `serve`
//!   process over the socket, one persistent connection per thread (it
//!   measures requests on a warm connection, not connection set-up).
//!
//! Every flag takes exactly one value (`--flag value`). Shared flags
//! (`--workload`, `--scale`, `--rounds`, `--budget-us`, `--max-in-flight`,
//! `--faults`) are parsed once in [`SharedArgs`]; each subcommand adds its
//! own. Errors (unknown subcommand, unknown flag, bad value — including a
//! scale that is not a finite number above 0, from `--scale` or
//! `FOSS_SCALE`, and `--max-in-flight 0`) are returned as readable strings
//! before any workload is built — the binary prints them and exits 2,
//! matching the workload-typo and fault-spec UX.

use std::str::FromStr;

/// The valid subcommands, in help order.
pub const SUBCOMMANDS: &[&str] = &["bench", "serve", "load"];

/// Default bind/target address for `serve` and `load`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7434";

/// A parsed `plan-doctor` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// In-process benchmark (the default subcommand).
    Bench(BenchArgs),
    /// Socket server.
    Serve(ServeArgs),
    /// Socket load generator.
    Load(LoadArgs),
}

/// Flags shared by the subcommands that build a workload + service.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedArgs {
    /// Workload registry name (`--workload`).
    pub workload: String,
    /// Row-count multiplier (`--scale`, else `FOSS_SCALE`, else 1.0).
    pub scale: f64,
    /// Training rounds before serving (`--rounds`).
    pub rounds: usize,
    /// Default per-query planning budget in µs (`--budget-us`).
    pub budget_us: Option<f64>,
    /// Admission ceiling (`--max-in-flight`).
    pub max_in_flight: usize,
    /// Deterministic fault-plan spec (`--faults`, beats `FOSS_FAULTS`).
    pub faults: Option<String>,
}

impl Default for SharedArgs {
    fn default() -> Self {
        Self {
            workload: "tpcdslite".into(),
            scale: 1.0,
            rounds: 1,
            budget_us: None,
            max_in_flight: 16,
            faults: None,
        }
    }
}

impl SharedArgs {
    /// Consume `flag` if it is a shared flag; `Ok(false)` hands it back to
    /// the subcommand's own table.
    fn apply(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--workload" => self.workload = value.to_string(),
            "--scale" => self.scale = parse_scale(flag, value)?,
            "--rounds" => self.rounds = num(flag, value)?,
            "--budget-us" => self.budget_us = Some(num(flag, value)?),
            "--max-in-flight" => self.max_in_flight = num(flag, value)?,
            "--faults" => self.faults = Some(value.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Fill in what the flags in `pairs` left unset from the environment
    /// (`--scale` beats `FOSS_SCALE`) and check the combined values.
    fn finish(&mut self, pairs: &[(&str, &str)]) -> Result<(), String> {
        if !pairs.iter().any(|&(flag, _)| flag == "--scale") {
            self.scale = scale_from_env(std::env::var("FOSS_SCALE").ok().as_deref())?;
        }
        if self.max_in_flight == 0 {
            return Err("--max-in-flight must be positive".into());
        }
        Ok(())
    }
}

/// `plan-doctor bench` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Workload/service flags.
    pub shared: SharedArgs,
    /// Submitting worker threads (`--threads`).
    pub threads: usize,
    /// Total submissions (`--queries`).
    pub queries: usize,
    /// Fraction of submissions tagged low priority (`--priority-mix`).
    pub priority_mix: f64,
    /// End-to-end deadline attached to every request (`--deadline-us`).
    pub deadline_us: Option<f64>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            shared: SharedArgs::default(),
            threads: 4,
            queries: 24,
            priority_mix: 0.0,
            deadline_us: None,
        }
    }
}

/// `plan-doctor serve` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Workload/service flags.
    pub shared: SharedArgs,
    /// Bind address (`--addr`).
    pub addr: String,
    /// Boot serving-only from this snapshot file instead of training
    /// (`--snapshot`).
    pub snapshot: Option<String>,
    /// After training, save the snapshot here (`--save-snapshot`).
    pub save_snapshot: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            shared: SharedArgs::default(),
            addr: DEFAULT_ADDR.into(),
            snapshot: None,
            save_snapshot: None,
        }
    }
}

/// `plan-doctor load` flags. The target server owns the workload; the
/// generator only needs its address and discovers the pool size from
/// `GET /healthz`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadArgs {
    /// Target server (`--addr`).
    pub addr: String,
    /// Closed-loop client threads, one connection each (`--threads`).
    pub threads: usize,
    /// Total requests to issue (`--requests`).
    pub requests: usize,
    /// Fraction of requests tagged low priority (`--priority-mix`).
    pub priority_mix: f64,
    /// Deadline attached to every request (`--deadline-us`).
    pub deadline_us: Option<f64>,
    /// Per-request planning-budget override (`--budget-us`).
    pub budget_us: Option<f64>,
}

impl Default for LoadArgs {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.into(),
            threads: 4,
            requests: 64,
            priority_mix: 0.0,
            deadline_us: None,
            budget_us: None,
        }
    }
}

fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} must be a number, got `{value}`"))
}

/// A workload scale from `what` (a flag or an environment variable): a
/// finite row-count multiplier above 0. Anything else would be clamped to
/// the generators' minimum table size without a word.
pub(crate) fn parse_scale(what: &str, value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "{what} must be a finite number above 0, got `{value}`"
        )),
    }
}

/// The scale `FOSS_SCALE` asks for, given the variable's value: 1.0 when it
/// is unset or blank, an error naming the variable when it does not parse.
pub(crate) fn scale_from_env(value: Option<&str>) -> Result<f64, String> {
    match value {
        Some(v) if !v.trim().is_empty() => parse_scale("FOSS_SCALE", v),
        _ => Ok(1.0),
    }
}

/// Split argv into `(--flag, value)` pairs (every flag takes one value).
fn flag_pairs(argv: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if !flag.starts_with("--") {
            return Err(format!("expected a --flag, got `{flag}`"));
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag, value.as_str()));
        i += 2;
    }
    Ok(pairs)
}

fn check_mix(mix: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&mix) {
        Ok(())
    } else {
        Err(format!(
            "--priority-mix must be a fraction in [0, 1], got {mix}"
        ))
    }
}

fn check_threads(threads: usize) -> Result<(), String> {
    if threads == 0 {
        Err("--threads must be positive".into())
    } else {
        Ok(())
    }
}

/// Parse a full argv (without the program name). The first argument picks
/// the subcommand; a leading `--flag` (or nothing) means `bench`, so
/// pre-subcommand invocations parse unchanged.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (sub, rest): (&str, &[String]) = match argv.first() {
        None => ("bench", &[]),
        Some(s) if s.starts_with("--") => ("bench", argv),
        Some(s) => (s.as_str(), &argv[1..]),
    };
    match sub {
        "bench" => {
            let mut args = BenchArgs::default();
            let pairs = flag_pairs(rest)?;
            for &(flag, value) in &pairs {
                if args.shared.apply(flag, value)? {
                    continue;
                }
                match flag {
                    "--threads" => args.threads = num(flag, value)?,
                    "--queries" => args.queries = num(flag, value)?,
                    "--priority-mix" => args.priority_mix = num(flag, value)?,
                    "--deadline-us" => args.deadline_us = Some(num(flag, value)?),
                    other => return Err(format!("unknown flag {other} for `bench`")),
                }
            }
            args.shared.finish(&pairs)?;
            check_threads(args.threads)?;
            check_mix(args.priority_mix)?;
            Ok(Command::Bench(args))
        }
        "serve" => {
            let mut args = ServeArgs::default();
            let pairs = flag_pairs(rest)?;
            for &(flag, value) in &pairs {
                if args.shared.apply(flag, value)? {
                    continue;
                }
                match flag {
                    "--addr" => args.addr = value.to_string(),
                    "--snapshot" => args.snapshot = Some(value.to_string()),
                    "--save-snapshot" => args.save_snapshot = Some(value.to_string()),
                    other => return Err(format!("unknown flag {other} for `serve`")),
                }
            }
            args.shared.finish(&pairs)?;
            Ok(Command::Serve(args))
        }
        "load" => {
            let mut args = LoadArgs::default();
            for (flag, value) in flag_pairs(rest)? {
                match flag {
                    "--addr" => args.addr = value.to_string(),
                    "--threads" => args.threads = num(flag, value)?,
                    "--requests" => args.requests = num(flag, value)?,
                    "--priority-mix" => args.priority_mix = num(flag, value)?,
                    "--deadline-us" => args.deadline_us = Some(num(flag, value)?),
                    "--budget-us" => args.budget_us = Some(num(flag, value)?),
                    other => return Err(format!("unknown flag {other} for `load`")),
                }
            }
            check_threads(args.threads)?;
            check_mix(args.priority_mix)?;
            Ok(Command::Load(args))
        }
        other => Err(format!(
            "unknown subcommand `{other}`; valid subcommands: {}",
            SUBCOMMANDS.join(", ")
        )),
    }
}

/// Parse the process argv; on error print the message and exit 2 (the
/// same contract as a typo'd `--workload` or an invalid `--faults` spec).
pub fn parse_or_exit() -> Command {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv).unwrap_or_else(|msg| {
        eprintln!("plan-doctor: {msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn bare_flags_default_to_bench() {
        let cmd = parse(&argv("--threads 2 --queries 8 --workload joblite")).unwrap();
        let Command::Bench(b) = cmd else {
            panic!("bare flags must mean bench")
        };
        assert_eq!(b.threads, 2);
        assert_eq!(b.queries, 8);
        assert_eq!(b.shared.workload, "joblite");
        assert!(matches!(parse(&[]).unwrap(), Command::Bench(_)));
    }

    #[test]
    fn explicit_subcommands_parse_their_flags() {
        let Command::Serve(s) = parse(&argv(
            "serve --addr 127.0.0.1:9000 --snapshot /tmp/planner.fsnp --rounds 2",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.addr, "127.0.0.1:9000");
        assert_eq!(s.snapshot.as_deref(), Some("/tmp/planner.fsnp"));
        assert_eq!(s.shared.rounds, 2);

        let Command::Load(l) = parse(&argv(
            "load --addr 127.0.0.1:9000 --requests 100 --threads 8 --priority-mix 0.25",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(l.requests, 100);
        assert_eq!(l.threads, 8);
        assert!((l.priority_mix - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unknown_subcommand_lists_the_valid_ones() {
        let err = parse(&argv("brench --queries 8")).unwrap_err();
        for name in SUBCOMMANDS {
            assert!(err.contains(name), "`{err}` must list `{name}`");
        }
    }

    #[test]
    fn unknown_and_malformed_flags_are_rejected() {
        assert!(parse(&argv("bench --serve-only 1"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("load --workload joblite"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("bench --queries"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("bench --queries many"))
            .unwrap_err()
            .contains("must be a number"));
        assert!(parse(&argv("bench --priority-mix 1.5"))
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse(&argv("load --threads 0"))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn values_that_cannot_run_are_rejected_at_parse_time() {
        for sub in ["bench", "serve"] {
            for scale in ["-1", "0", "nan", "inf"] {
                let err = parse(&argv(&format!("{sub} --scale {scale}"))).unwrap_err();
                assert!(
                    err.contains("--scale must be a finite number above 0"),
                    "{err}"
                );
            }
            let err = parse(&argv(&format!("{sub} --max-in-flight 0"))).unwrap_err();
            assert!(err.contains("--max-in-flight must be positive"), "{err}");
        }
    }

    #[test]
    fn env_scale_resolves_or_names_the_variable() {
        let cases: &[(Option<&str>, Option<f64>)] = &[
            (None, Some(1.0)),
            (Some(""), Some(1.0)),
            (Some("0.05"), Some(0.05)),
            (Some("0"), None),
            (Some("-1"), None),
            (Some("nan"), None),
            (Some("inf"), None),
            (Some("0,3"), None),
        ];
        for &(value, want) in cases {
            match (scale_from_env(value), want) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "{value:?}"),
                (Err(err), None) => assert!(err.contains("FOSS_SCALE"), "{value:?}: {err}"),
                (got, want) => panic!("{value:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn shared_flags_work_across_subcommands() {
        for sub in ["", "serve "] {
            let line = format!(
                "{sub}--workload skewstress --scale 0.2 --max-in-flight 4 --faults exec_error:0.5"
            );
            let cmd = parse(&argv(&line)).unwrap();
            let shared = match &cmd {
                Command::Bench(b) => &b.shared,
                Command::Serve(s) => &s.shared,
                Command::Load(_) => unreachable!(),
            };
            assert_eq!(shared.workload, "skewstress");
            assert!((shared.scale - 0.2).abs() < 1e-12);
            assert_eq!(shared.max_in_flight, 4);
            assert_eq!(shared.faults.as_deref(), Some("exec_error:0.5"));
        }
    }

    #[test]
    fn tier_flag_is_gone() {
        // Spelled in two parts so a search for the deleted flag finds only
        // live uses.
        let flag = concat!("--", "tier");
        for line in [format!("{flag} force"), format!("serve {flag} off")] {
            let err = parse(&argv(&line)).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag {flag}")),
                "{line}: {err}"
            );
        }
    }
}
