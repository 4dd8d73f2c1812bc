//! The service's metrics registry.
//!
//! Counters are lock-free atomics bumped on the submit path; latency and
//! planning-time samples go into mutex-guarded **bounded** reservoirs that
//! are only locked for a push (the percentile math runs at snapshot time,
//! off the hot path). Percentiles share their definition with the
//! experiment harness via [`foss_common::percentile`].

use foss_common::sync::atomic::{AtomicU64, Ordering};
use foss_common::sync::Mutex;
use foss_executor::CacheStats;

use crate::breaker::{BreakerState, BreakerView};
use crate::FallbackReason;

/// Capacity of each sample reservoir. Percentiles are computed over a
/// sliding window of the most recent [`RESERVOIR_CAP`] samples, so a
/// long-lived service holds O(1) memory and `metrics()` costs O(cap log
/// cap) regardless of uptime.
const RESERVOIR_CAP: usize = 4096;

/// Fixed-capacity sliding window (ring buffer once full).
#[derive(Debug, Default)]
struct Reservoir {
    samples: Vec<f64>,
    /// Oldest slot, overwritten next once the window is full.
    next: usize,
}

impl Reservoir {
    fn push(&mut self, value: f64) {
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % RESERVOIR_CAP;
        }
    }
}

/// Counts completed queries per [`FallbackReason`]; shared by all worker
/// threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Completions per reason, indexed by `reason as usize`. Their sum is
    /// `submitted`; every slot but [`FallbackReason::None`] is a fallback.
    reasons: [AtomicU64; 7],
    errors: AtomicU64,
    shed_low: AtomicU64,
    shed_high: AtomicU64,
    retries: AtomicU64,
    latencies: Mutex<Reservoir>,
    planning_us: Mutex<Reservoir>,
}

impl MetricsRegistry {
    /// Fold one completed query into the registry: why the expert plan was
    /// served (if at all), the wall-clock planning time (µs) and the
    /// execution latency of the plan that was run (work units ≡ µs).
    pub fn record(&self, reason: FallbackReason, planning_us: f64, latency: f64) {
        self.reasons[reason as usize].fetch_add(1, Ordering::Relaxed);
        self.latencies.lock().push(latency);
        self.planning_us.lock().push(planning_us);
    }

    /// Count an admitted query that failed with an error (it is never
    /// [`MetricsRegistry::record`]ed). Keeps the registry an honest account
    /// of admitted traffic: `submitted` counts completions only, `errors`
    /// the rest.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request shed by admission control before any work ran.
    /// Sheds are neither completions (`submitted`) nor `errors`: they are
    /// the service protecting itself, tracked per priority class.
    pub fn record_shed(&self, low_priority: bool) {
        if low_priority {
            self.shed_low.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed_high.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one retry of a transient executor failure.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (counters are read
    /// individually; percentiles come from the reservoirs — the most
    /// recent 4096 samples — at call time). `cache`,
    /// `in_flight_high_water`, `breaker` and `faults_injected` are
    /// supplied by the owner, which holds the executor, the admission
    /// gate, the circuit breaker and the (optional) fault plan.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        in_flight_high_water: usize,
        breaker: BreakerView,
        faults_injected: u64,
    ) -> MetricsSnapshot {
        let latencies = self.latencies.lock().samples.clone();
        let planning = self.planning_us.lock().samples.clone();
        let pct = |s: &[f64], p: f64| foss_common::percentile(s, p).unwrap_or(0.0);
        let count = self.reasons.each_ref().map(|c| c.load(Ordering::Relaxed));
        let of = |reason: FallbackReason| count[reason as usize];
        let submitted: u64 = count.iter().sum();
        let fallbacks = submitted - of(FallbackReason::None);
        let shed_low = self.shed_low.load(Ordering::Relaxed);
        let shed_high = self.shed_high.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted,
            errors: self.errors.load(Ordering::Relaxed),
            fallbacks,
            planning_timeouts: of(FallbackReason::PlanningTimeout),
            low_confidence: of(FallbackReason::LowConfidence),
            exec_timeouts: of(FallbackReason::ExecTimeout),
            exec_errors: of(FallbackReason::ExecError),
            breaker_open_served: of(FallbackReason::BreakerOpen),
            deadline_exceeded: of(FallbackReason::DeadlineExceeded),
            shed_low,
            shed_high,
            sheds: shed_low + shed_high,
            retries: self.retries.load(Ordering::Relaxed),
            breaker_state: breaker.state,
            breaker_transitions: breaker.transitions,
            breaker_times_opened: breaker.times_opened,
            faults_injected,
            fallback_rate: if submitted == 0 {
                0.0
            } else {
                fallbacks as f64 / submitted as f64
            },
            latency_p50: pct(&latencies, 50.0),
            latency_p95: pct(&latencies, 95.0),
            latency_p99: pct(&latencies, 99.0),
            planning_p50_us: pct(&planning, 50.0),
            planning_p99_us: pct(&planning, 99.0),
            in_flight_high_water,
            cache_hit_rate: cache.hit_rate(),
            cache,
            tier_compiles: 0,
            tier_hits: 0,
            tier_fallbacks: 0,
        }
    }
}

/// Point-in-time view of the registry (plus cache + admission gauges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries completed.
    pub submitted: u64,
    /// Admitted queries that failed with an error (not in `submitted`).
    pub errors: u64,
    /// Queries answered with the expert plan instead of the doctored one.
    pub fallbacks: u64,
    /// …because planning exceeded its budget.
    pub planning_timeouts: u64,
    /// …because the AAM's confidence was below the configured floor.
    pub low_confidence: u64,
    /// …because the doctored plan blew its execution budget.
    pub exec_timeouts: u64,
    /// …because the doctored plan kept failing transiently after retries.
    pub exec_errors: u64,
    /// …because the circuit breaker was open (expert served directly).
    pub breaker_open_served: u64,
    /// …because the request's deadline expired before the doctored plan
    /// could be attempted.
    pub deadline_exceeded: u64,
    /// Low-priority requests shed by admission control.
    pub shed_low: u64,
    /// High-priority requests shed by admission control.
    pub shed_high: u64,
    /// `shed_low + shed_high`.
    pub sheds: u64,
    /// Transient-failure retries performed on the doctored path.
    pub retries: u64,
    /// Circuit-breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Lifetime breaker state transitions.
    pub breaker_transitions: u64,
    /// Times the breaker has opened.
    pub breaker_times_opened: u64,
    /// Faults the attached [`foss_common::FaultPlan`] injected (0 when no
    /// plan is attached).
    pub faults_injected: u64,
    /// `fallbacks / submitted` (0 when idle).
    pub fallback_rate: f64,
    /// Median execution latency (work units ≡ µs).
    pub latency_p50: f64,
    /// 95th-percentile execution latency.
    pub latency_p95: f64,
    /// 99th-percentile execution latency.
    pub latency_p99: f64,
    /// Median planning time (µs).
    pub planning_p50_us: f64,
    /// 99th-percentile planning time (µs).
    pub planning_p99_us: f64,
    /// Most queries ever in flight simultaneously.
    pub in_flight_high_water: usize,
    /// Shared executor cache counters.
    pub cache: CacheStats,
    /// `cache.hit_rate()` at snapshot time.
    pub cache_hit_rate: f64,
    /// Always 0; kept for `benchmark/src/traced.rs` until ROADMAP item 18.
    pub tier_compiles: u64,
    /// Always 0; kept for `benchmark/src/traced.rs` until ROADMAP item 18.
    pub tier_hits: u64,
    /// Always 0; kept for `benchmark/src/traced.rs` until ROADMAP item 18.
    pub tier_fallbacks: u64,
}

impl MetricsSnapshot {
    /// One-line operator summary (the `plan-doctor` binary prints this and
    /// CI asserts on it, on `submitted=`, `opened=` and `faults=` each
    /// followed by a space).
    pub fn summary_line(&self) -> String {
        format!(
            "plan-doctor metrics: submitted={} p50={:.0} p95={:.0} p99={:.0} \
             fallback_rate={:.3} cache_hit_rate={:.3} errors={} \
             shed={}/{} retries={} breaker={} opened={} faults={} inflight_hwm={}",
            self.submitted,
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            self.fallback_rate,
            self.cache_hit_rate,
            self.errors,
            self.shed_low,
            self.shed_high,
            self.retries,
            self.breaker_state.label(),
            self.breaker_times_opened,
            self.faults_injected,
            self.in_flight_high_water,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owner-supplied breaker view for registries under test.
    fn idle_breaker() -> BreakerView {
        BreakerView {
            state: BreakerState::Closed,
            transitions: 0,
            times_opened: 0,
        }
    }

    #[test]
    fn empty_registry_reports_zeros() {
        let reg = MetricsRegistry::default();
        let snap = reg.snapshot(CacheStats::default(), 0, idle_breaker(), 0);
        assert_eq!(snap.submitted, 0);
        assert_eq!(snap.fallback_rate, 0.0);
        assert_eq!(snap.latency_p99, 0.0, "empty percentiles must not panic");
        assert!(snap.summary_line().contains("submitted=0"));
    }

    #[test]
    fn counters_and_percentiles_accumulate() {
        let reg = MetricsRegistry::default();
        for i in 0..100 {
            let reason = if i % 10 == 0 {
                FallbackReason::PlanningTimeout
            } else {
                FallbackReason::None
            };
            reg.record(reason, 10.0, i as f64);
        }
        let snap = reg.snapshot(
            CacheStats {
                executions: 25,
                hits: 75,
                entries: 25,
            },
            7,
            idle_breaker(),
            0,
        );
        assert_eq!(snap.submitted, 100);
        assert_eq!(snap.fallbacks, 10);
        assert_eq!(snap.planning_timeouts, 10);
        assert!((snap.fallback_rate - 0.1).abs() < 1e-12);
        assert!(snap.latency_p50 <= snap.latency_p95);
        assert!(snap.latency_p95 <= snap.latency_p99);
        assert!((snap.latency_p50 - 49.5).abs() < 1e-9);
        assert!((snap.cache_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(snap.in_flight_high_water, 7);
    }

    #[test]
    fn errors_are_counted_separately_from_completions() {
        let reg = MetricsRegistry::default();
        reg.record(FallbackReason::None, 10.0, 5.0);
        reg.record_error();
        reg.record_error();
        let snap = reg.snapshot(CacheStats::default(), 1, idle_breaker(), 0);
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.errors, 2);
        assert!(snap.summary_line().contains("errors=2"));
    }

    #[test]
    fn robustness_counters_flow_into_snapshot_and_summary() {
        let reg = MetricsRegistry::default();
        // Reason `k` is recorded `k + 1` times, so a counter read from the
        // wrong slot shows up as a wrong count.
        let reasons = [
            FallbackReason::None,
            FallbackReason::PlanningTimeout,
            FallbackReason::LowConfidence,
            FallbackReason::ExecTimeout,
            FallbackReason::ExecError,
            FallbackReason::BreakerOpen,
            FallbackReason::DeadlineExceeded,
        ];
        for (k, reason) in reasons.into_iter().enumerate() {
            for _ in 0..=k {
                reg.record(reason, 10.0, k as f64);
            }
        }
        reg.record_shed(true);
        reg.record_shed(true);
        reg.record_shed(false);
        reg.record_retry();
        let view = BreakerView {
            state: BreakerState::Open,
            transitions: 3,
            times_opened: 2,
        };
        let snap = reg.snapshot(CacheStats::default(), 1, view, 5);
        assert_eq!(snap.submitted, 28);
        assert_eq!(snap.fallbacks, 27, "every degraded reason is a fallback");
        assert!((snap.fallback_rate - 27.0 / 28.0).abs() < 1e-12);
        assert_eq!(
            (
                snap.planning_timeouts,
                snap.low_confidence,
                snap.exec_timeouts,
                snap.exec_errors,
                snap.breaker_open_served,
                snap.deadline_exceeded
            ),
            (2, 3, 4, 5, 6, 7)
        );
        assert_eq!((snap.shed_low, snap.shed_high, snap.sheds), (2, 1, 3));
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.breaker_state, BreakerState::Open);
        assert_eq!(snap.breaker_transitions, 3);
        assert_eq!(snap.breaker_times_opened, 2);
        assert_eq!(snap.faults_injected, 5);
        let line = snap.summary_line();
        for needle in [
            "submitted=28 ",
            "fallback_rate=0.964",
            "shed=2/1",
            "retries=1",
            "breaker=open",
            " opened=2 ",
            " faults=5 ",
        ] {
            assert!(line.contains(needle), "summary `{line}` lacks `{needle}`");
        }
        // There is no execution tier: its fields read 0 and stay off the line.
        assert_eq!(
            (snap.tier_compiles, snap.tier_hits, snap.tier_fallbacks),
            (0, 0, 0)
        );
        assert!(!line.contains("tier="), "summary `{line}` names a tier");
    }

    #[test]
    fn reservoirs_stay_bounded_and_track_the_recent_window() {
        let reg = MetricsRegistry::default();
        // Fill well past capacity: old samples (latency 0) must age out.
        for _ in 0..RESERVOIR_CAP + 100 {
            reg.record(FallbackReason::None, 10.0, 0.0);
        }
        for _ in 0..RESERVOIR_CAP {
            reg.record(FallbackReason::None, 10.0, 100.0);
        }
        assert_eq!(reg.latencies.lock().samples.len(), RESERVOIR_CAP);
        let snap = reg.snapshot(CacheStats::default(), 1, idle_breaker(), 0);
        assert_eq!(snap.submitted, (2 * RESERVOIR_CAP + 100) as u64);
        assert_eq!(
            snap.latency_p50, 100.0,
            "window must contain only the most recent samples"
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..50 {
                        let reason = if t == 0 {
                            FallbackReason::ExecTimeout
                        } else {
                            FallbackReason::None
                        };
                        reg.record(reason, 10.0, (t * 50 + i) as f64);
                    }
                });
            }
        });
        let snap = reg.snapshot(CacheStats::default(), 4, idle_breaker(), 0);
        assert_eq!(snap.submitted, 200);
        assert_eq!(snap.exec_timeouts, 50);
        assert_eq!(snap.fallbacks, 50);
    }
}
