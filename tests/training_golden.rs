//! Bit-identity gate for the training loop (ROADMAP item 1d).
//!
//! `skewstress` at scale 1.0 under the serving configuration
//! (`FossConfig::tiny()` + 100 simulated episodes per update — what
//! `benchmark`'s `serve_*` workloads and `plan-doctor serve` train):
//! bootstrap plus N iterations must reproduce, bit for bit, the snapshot
//! bytes and every [`TrainReport`]'s learned figures. The constants were
//! taken at commit `af9b32c` — before simulated episodes fanned out, before
//! the backward pass flushed sub-2⁻¹⁰⁰ gradients and before the accuracy pass
//! was chunked — so a perf or cleanup PR that changes what the doctor learns
//! fails here instead of passing silently. A PR that changes learning on
//! purpose re-pins them and says which mechanism moved them.

use foss_repro::prelude::*;

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a run learned: the snapshot's digest and length, and per report the
/// bits of `(mean_reward, aam_loss, aam_accuracy)`.
struct Learned {
    snapshot_fnv: u64,
    snapshot_len: usize,
    reports: Vec<[u32; 3]>,
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

/// Bootstrap + `iterations` training rounds.
fn train(iterations: usize) -> Learned {
    let exp = Experiment::new(
        "skewstress",
        WorkloadSpec {
            seed: 42,
            scale: 1.0,
        },
    )
    .unwrap();
    let mut foss = exp.foss(FossConfig {
        episodes_per_update: 100,
        ..FossConfig::tiny()
    });
    let reports = foss.train(&exp.workload.train, iterations).unwrap();
    assert_eq!(reports.len(), iterations + 1);
    let bytes = foss.snapshot().to_bytes();
    Learned {
        snapshot_fnv: fnv1a64(&bytes),
        snapshot_len: bytes.len(),
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
    assert_eq!(got.snapshot_len, 349_014);
    assert_eq!(
        got.snapshot_fnv, 0xa67b_e0a4_eadd_8967,
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
    let got = train(30);
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
    assert_eq!(got.snapshot_len, 541_438);
    assert_eq!(
        got.snapshot_fnv, 0xdeb0_f699_77e8_026c,
        "snapshot bytes diverged: {:016x}",
        got.snapshot_fnv
    );
}
