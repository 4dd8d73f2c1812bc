//! Bit-identity gate for the training loop (ROADMAP item 1d).
//!
//! `skewstress` at scale 1.0 under the serving configuration
//! (`FossConfig::tiny()` + 100 simulated episodes per update — what
//! `benchmark`'s `serve_*` workloads and `plan-doctor serve` train):
//! bootstrap plus N iterations must reproduce, bit for bit, the snapshot
//! bytes, the execution buffer and every [`TrainReport`]'s learned figures.
//! The report constants were taken at commit `af9b32c` — before simulated
//! episodes fanned out, before the backward pass flushed sub-2⁻¹⁰⁰ gradients
//! and before the accuracy pass was chunked — so a perf or cleanup PR that
//! changes what the doctor learns fails here instead of passing silently. A
//! PR that changes learning on purpose re-pins them and says which mechanism
//! moved them.
//!
//! The buffer digests were taken before `.fsnp` v2 dropped the buffer from
//! the snapshot, and the v2 snapshot digests were the v1 snapshots of the
//! same runs with the version word changed and the buffer and
//! advantage-scale sections cut out: the format change moved no learned bit.
//! A snapshot no longer grows with training, hence one length for both
//! runs. The v3 snapshot digests are, in turn, the v2 snapshots of the same
//! runs cut before their last section (the training queries' expert plans,
//! 17 990 bytes in every run) with the version word set to 3; v3 dropped
//! that section and nothing else.
//!
//! The 30-iteration run also pins what its final snapshot serves on the
//! train and test splits through `harness::evaluate_on`: the Σ-ratio, the
//! GMRL and a digest of the served plans. Those constants were taken
//! before the learned baselines moved onto one shared learner.
//!
//! Two shorter pins cover the paths the serving configuration never takes:
//! the Off-Simulated ablation (real-environment episodes in every iteration)
//! and the 2-Agents ablation (a bootstrap that alternates agents, agents
//! trained side by side).

use foss_repro::core::{ExecutionBuffer, TrainReport};
use foss_repro::prelude::*;

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a run learned: the snapshot's digest and length, the execution
/// buffer's digest, and per report the bits of
/// `(mean_reward, aam_loss, aam_accuracy)`.
struct Learned {
    snapshot_fnv: u64,
    snapshot_len: usize,
    buffer_fnv: u64,
    reports: Vec<[u32; 3]>,
}

/// FNV-1a-64 over every executed plan in `buffer`, through its public
/// accessors: queries in `queries()` order, per query the original and then
/// each of `plans(q)`, each as (plan fingerprint, latency bits, timed out).
fn buffer_fnv(buffer: &ExecutionBuffer) -> u64 {
    let mut bytes = Vec::new();
    for qid in buffer.queries() {
        for p in buffer.original(qid).into_iter().chain(buffer.plans(qid)) {
            bytes.extend_from_slice(&p.plan.fingerprint().to_le_bytes());
            bytes.extend_from_slice(&p.latency.to_bits().to_le_bytes());
            bytes.push(u8::from(p.timed_out));
        }
    }
    fnv1a64(&bytes)
}

impl Learned {
    /// One digest over every report's bits, in order.
    fn reports_fnv(&self) -> u64 {
        let bytes: Vec<u8> = self
            .reports
            .iter()
            .flatten()
            .flat_map(|bits| bits.to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }
}

/// The serving configuration: `FossConfig::tiny()` + 100 simulated episodes
/// per update.
fn serving() -> FossConfig {
    FossConfig {
        episodes_per_update: 100,
        ..FossConfig::tiny()
    }
}

/// Bootstrap + `iterations` training rounds of the serving configuration.
fn train(iterations: usize) -> Learned {
    train_with(serving(), 1, iterations)
}

/// Bootstrap with `bootstrap_episodes` real episodes per query, then
/// `iterations` training rounds of `cfg`.
fn train_with(cfg: FossConfig, bootstrap_episodes: usize, iterations: usize) -> Learned {
    let (_, foss, reports) = run(cfg, bootstrap_episodes, iterations);
    Learned::of(&foss, &reports)
}

/// The `skewstress` experiment, the system trained on its train split and
/// the bootstrap's and every iteration's report.
fn run(
    cfg: FossConfig,
    bootstrap_episodes: usize,
    iterations: usize,
) -> (Experiment, Foss, Vec<TrainReport>) {
    let exp = Experiment::new(
        "skewstress",
        WorkloadSpec {
            seed: 42,
            scale: 1.0,
        },
    )
    .unwrap();
    let mut foss = exp.foss(cfg);
    let train = &exp.workload.train;
    let mut reports = vec![foss.bootstrap(train, bootstrap_episodes).unwrap()];
    reports.extend(foss.train(train, iterations).unwrap());
    assert_eq!(reports.len(), iterations + 1);
    (exp, foss, reports)
}

impl Learned {
    fn of(foss: &Foss, reports: &[TrainReport]) -> Self {
        let bytes = foss.snapshot().to_bytes();
        Learned {
            snapshot_fnv: fnv1a64(&bytes),
            snapshot_len: bytes.len(),
            buffer_fnv: buffer_fnv(foss.buffer()),
            reports: reports
                .iter()
                .map(|r| {
                    [
                        r.mean_reward.to_bits(),
                        r.aam_loss.to_bits(),
                        r.aam_accuracy.to_bits(),
                    ]
                })
                .collect(),
        }
    }
}

/// What the final snapshot serves on one split, scored by `evaluate_on`
/// under its 10× expert budget: the bits of the Σ-ratio and the GMRL, and
/// FNV-1a-64 over the sorted fingerprints of the served plans.
fn served(exp: &Experiment, foss: &FossAdapter, queries: &[Query]) -> (u64, u64, u64) {
    let eval = evaluate_on(exp, foss, queries).unwrap();
    let mut fingerprints: Vec<u64> = queries
        .iter()
        .map(|q| foss.plan(q).unwrap().fingerprint())
        .collect();
    fingerprints.sort_unstable();
    let bytes: Vec<u8> = fingerprints.iter().flat_map(|f| f.to_le_bytes()).collect();
    (
        eval.sigma_ratio.to_bits(),
        eval.gmrl.to_bits(),
        fnv1a64(&bytes),
    )
}

#[test]
fn five_iterations_reproduce_the_pinned_snapshot_and_reports() {
    let got = train(5);
    // Bootstrap, then iterations 1–5: (mean_reward, aam_loss, aam_accuracy).
    const REPORTS: [[u32; 3]; 6] = [
        [0x00000000, 0x3eaac5bb, 0x3f56cc5c],
        [0xbf892736, 0x3e853cb1, 0x3f58a7de],
        [0xbf3e016f, 0x3e5cefa5, 0x3f5a0000],
        [0xbfa8ea8a, 0x3e3081d6, 0x3f60b363],
        [0xbf1847e8, 0x3e30ea6f, 0x3f609c89],
        [0xbfb6d05b, 0x3e19355e, 0x3f62e463],
    ];
    for (i, (got, want)) in got.reports.iter().zip(&REPORTS).enumerate() {
        assert_eq!(got, want, "report {i} diverged: {got:08x?}");
    }
    assert_eq!(got.reports.len(), REPORTS.len());
    assert_eq!(
        got.buffer_fnv, 0x4aea_f725_67cb_41a6,
        "execution buffer diverged: {:016x}",
        got.buffer_fnv
    );
    assert_eq!(got.snapshot_len, 99_278);
    assert_eq!(
        got.snapshot_fnv, 0x0735_766b_5614_14e9,
        "snapshot bytes diverged: {:016x}",
        got.snapshot_fnv
    );
}

/// The run in which the doctor has actually learned (ROADMAP: 7.9× on its
/// training queries). Release mode only — CI runs it with
/// `cargo test --release --test training_golden -- --ignored`.
#[test]
#[ignore = "≈20 s in release mode; run by the release-mode CI step"]
fn thirty_iterations_reproduce_the_pinned_snapshot_and_reports() {
    let (exp, foss, reports) = run(serving(), 1, 30);
    let got = Learned::of(&foss, &reports);
    assert_eq!(
        got.reports.last(),
        Some(&[0x3eb0afb7, 0x3d02998e, 0x3f7c2cba]),
        "iteration 30's report diverged"
    );
    assert_eq!(
        got.reports_fnv(),
        0x55a2_de38_a520_78c2,
        "some report of the 31 diverged: {:08x?}",
        got.reports
    );
    assert_eq!(
        got.buffer_fnv, 0xe0d2_96ce_ae24_92db,
        "execution buffer diverged: {:016x}",
        got.buffer_fnv
    );
    assert_eq!(got.snapshot_len, 99_278);
    assert_eq!(
        got.snapshot_fnv, 0x5890_fa30_faca_9f0a,
        "snapshot bytes diverged: {:016x}",
        got.snapshot_fnv
    );
    // The readable half: what the learned doctor serves, split by split, as
    // (Σ-ratio bits, GMRL bits, served-plan digest). Train is Σ 7.941 and
    // GMRL 0.868, test Σ 0.998 and GMRL 1.215.
    const TRAIN: (u64, u64, u64) = (
        0x401f_c360_0c60_0d57,
        0x3feb_c8c5_a65b_03de,
        0xca73_682e_81d3_da6d,
    );
    const TEST: (u64, u64, u64) = (
        0x3fef_f064_7833_872d,
        0x3ff3_715e_b878_44c7,
        0xa12b_5c83_f374_3807,
    );
    let foss = FossAdapter::new(foss);
    for (split, queries, want) in [
        ("train", &exp.workload.train, TRAIN),
        ("test", &exp.workload.test, TEST),
    ] {
        let got = served(&exp, &foss, queries);
        assert_eq!(
            got,
            want,
            "{split} split diverged: Σ {} GMRL {} ({got:016x?})",
            f64::from_bits(got.0),
            f64::from_bits(got.1),
        );
    }
}

/// The Off-Simulated row of Table II (`harness::ablation::configurations`)
/// over the serving configuration: every episode runs in the real
/// environment, with episodes cut to 2/9 of the simulated count. Constants
/// taken at commit `24f57df`, before the real-environment paths were merged.
#[test]
fn off_simulated_reproduces_the_pinned_snapshot_and_reports() {
    let got = train_with(
        FossConfig {
            use_simulated_env: false,
            episodes_per_update: 100 * 2 / 9,
            ..serving()
        },
        1,
        2,
    );
    const REPORTS: [[u32; 3]; 3] = [
        [0x00000000, 0x3eaac5bb, 0x3f56cc5c],
        [0xbfa887cf, 0x3e985559, 0x3f4cbd45],
        [0xbe81392c, 0x3e6d1737, 0x3f560ec7],
    ];
    assert_eq!(
        got.reports, REPORTS,
        "reports diverged: {:08x?}",
        got.reports
    );
    assert_eq!(
        got.buffer_fnv, 0xb82b_447d_aa2a_6dcc,
        "execution buffer diverged: {:016x}",
        got.buffer_fnv
    );
    assert_eq!(got.snapshot_len, 99_278);
    assert_eq!(
        got.snapshot_fnv, 0xd5a2_f599_f19c_00cf,
        "snapshot bytes diverged: {:016x}",
        got.snapshot_fnv
    );
}

/// The 2-Agents row of Table II over the serving configuration, with two
/// bootstrap episodes per query so the bootstrap alternates its agents.
/// Constants taken at commit `24f57df`.
#[test]
fn two_agents_reproduce_the_pinned_snapshot_and_reports() {
    let got = train_with(
        FossConfig {
            num_agents: 2,
            ..serving()
        },
        2,
        2,
    );
    const REPORTS: [[u32; 3]; 3] = [
        [0x00000000, 0x3e9db159, 0x3f4d0215],
        [0xbfe0d752, 0x3e67d6a6, 0x3f5667b0],
        [0xbfce5d03, 0x3e3b1950, 0x3f5f736b],
    ];
    assert_eq!(
        got.reports, REPORTS,
        "reports diverged: {:08x?}",
        got.reports
    );
    assert_eq!(
        got.buffer_fnv, 0x3252_3114_ac05_7591,
        "execution buffer diverged: {:016x}",
        got.buffer_fnv
    );
    assert_eq!(got.snapshot_len, 151_698);
    assert_eq!(
        got.snapshot_fnv, 0x2695_c42b_1756_07fd,
        "snapshot bytes diverged: {:016x}",
        got.snapshot_fnv
    );
}
