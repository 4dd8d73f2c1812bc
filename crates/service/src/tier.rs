//! Tiered execution: supported plan shapes run fused from their first
//! execution.
//!
//! Every execution the service performs asks [`TierEngine::pipeline_for`]
//! first. The engine keys a verdict map on the plan **shape**
//! ([`foss_executor::fused::shape_key`], a widening of
//! `PhysicalPlan::fingerprint` that also hashes tables, predicate columns
//! and join edges — but *not* predicate constants, so every instance of a
//! query template shares one shape). The first lookup of a shape runs
//! [`FusedPipeline::compile`] once and records the verdict: a compiled
//! pipeline, or [`TierEntry::Unsupported`] for a shape the compiler
//! declines, which then runs on the chunked interpreter forever without
//! another compile attempt.
//!
//! The fused tier charges the interpreter's identical work-unit sequence,
//! so which tier runs a plan never changes results, recorded latencies or
//! timeout behaviour — only wall-clock cost.

use std::sync::Arc;

use foss_common::sync::atomic::{AtomicU64, Ordering};
use foss_common::sync::RwLock;
use foss_common::FxHashMap;
use foss_executor::FusedPipeline;
use foss_optimizer::PhysicalPlan;
use foss_query::Query;

/// Tiering settings, embedded in `ServiceConfig`. It has none: every
/// supported shape runs fused. The struct stays only because the
/// benchmark's traced lane builds `TierEngine::new(ServiceConfig::default().tier)`;
/// it goes once that lane moves off the tier (ROADMAP item 18).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierConfig;

/// Tier counters for metrics (`tier_compiles` / `tier_hits` /
/// `tier_fallbacks` in the metrics snapshot and wire JSON).
///
/// The service consults the tier before the executor's result cache, so
/// `hits` and `fallbacks` count plan lookups, cache hits included — not
/// executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Shapes compiled to fused pipelines.
    pub compiles: u64,
    /// Plan lookups that resolved to a compiled pipeline, cache hits
    /// included.
    pub hits: u64,
    /// Plan lookups that resolved to an unsupported shape (and so to the
    /// interpreter), cache hits included.
    pub fallbacks: u64,
}

/// The compile verdict recorded for one shape.
#[derive(Debug)]
pub enum TierEntry {
    /// The shape compiled; executions route through the fused pipeline.
    Compiled(FusedPipeline),
    /// The shape is unsupported; executions stay on the interpreter (and
    /// count as `tier_fallbacks`), but the compile attempt is not repeated.
    Unsupported,
}

/// The service's tier engine: one compile verdict per shape, plus the
/// counters. Consulted by `PlanDoctor` on every execution.
#[derive(Debug, Default)]
pub struct TierEngine {
    verdicts: RwLock<FxHashMap<u64, Arc<TierEntry>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl TierEngine {
    /// An engine with no verdicts yet.
    pub fn new(_cfg: TierConfig) -> Self {
        Self::default()
    }

    /// The fused pipeline to execute `(query, plan)` with, or `None` to
    /// interpret (an unsupported shape). The first lookup of a shape
    /// compiles it.
    pub fn pipeline_for(&self, query: &Query, plan: &PhysicalPlan) -> Option<Arc<TierEntry>> {
        let shape = foss_executor::fused::shape_key(query, plan);
        let entry = self.resolve(shape, || match FusedPipeline::compile(query, plan) {
            Some(pipeline) => TierEntry::Compiled(pipeline),
            None => TierEntry::Unsupported,
        });
        matches!(*entry, TierEntry::Compiled(_)).then_some(entry)
    }

    /// The verdict for `shape`: the recorded one, else `compile`'s, which
    /// is then recorded. A miss re-checks under the write lock before it
    /// compiles, so racers on one shape compile it once and all get the
    /// same verdict. Counts the lookup as a hit or a fallback.
    pub fn resolve(&self, shape: u64, compile: impl FnOnce() -> TierEntry) -> Arc<TierEntry> {
        let recorded = self.verdicts.read().get(&shape).cloned();
        let entry = recorded.unwrap_or_else(|| {
            let mut verdicts = self.verdicts.write();
            verdicts
                .entry(shape)
                .or_insert_with(|| {
                    let entry = compile();
                    if matches!(entry, TierEntry::Compiled(_)) {
                        self.compiles.fetch_add(1, Ordering::Relaxed);
                    }
                    Arc::new(entry)
                })
                .clone()
        });
        let counter = match *entry {
            TierEntry::Compiled(_) => &self.hits,
            TierEntry::Unsupported => &self.fallbacks,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Counter snapshot for metrics.
    pub fn stats(&self) -> TierStats {
        TierStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_per_shape() {
        let engine = TierEngine::new(TierConfig);
        assert_eq!(engine.stats(), TierStats::default());
        let first = engine.resolve(7, || TierEntry::Unsupported);
        let again = engine.resolve(7, || unreachable!("recorded verdict recompiled"));
        assert!(Arc::ptr_eq(&first, &again));
        // Other shapes are independent.
        engine.resolve(9, || TierEntry::Unsupported);
        assert_eq!(engine.verdicts.read().len(), 2, "one verdict per shape");
        assert_eq!(
            engine.stats(),
            TierStats {
                compiles: 0,
                hits: 0,
                fallbacks: 3,
            },
            "every lookup counts"
        );
    }

    #[test]
    fn tier_cell_claim_is_exclusive_and_released_on_drop() {
        use foss_common::sync::atomic::AtomicUsize;
        // Racers on one shape: exactly one runs the compile, all share
        // its verdict.
        let engine = TierEngine::new(TierConfig);
        let compiled = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let entries: Vec<Arc<TierEntry>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        engine.resolve(5, || {
                            compiled.fetch_add(1, Ordering::Relaxed);
                            TierEntry::Unsupported
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(compiled.load(Ordering::Relaxed), 1, "claim is exclusive");
        assert!(entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])));
        // A compile that unwinds records nothing and leaves the lock
        // usable: the next lookup of that shape compiles again.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.resolve(6, || panic!("compile unwound"))
        }));
        assert!(unwound.is_err());
        assert!(
            !engine.verdicts.read().contains_key(&6),
            "no verdict recorded"
        );
        engine.resolve(6, || TierEntry::Unsupported);
        assert!(engine.verdicts.read().contains_key(&6), "key released");
        assert_eq!(engine.stats().fallbacks, 5);
    }

    #[test]
    fn tier_cell_publish_is_copy_on_write() {
        let engine = TierEngine::new(TierConfig);
        let before = engine.resolve(0, || TierEntry::Unsupported);
        for shape in 1..3 {
            engine.resolve(shape, || TierEntry::Unsupported);
        }
        // Recording later shapes never touches a verdict already handed
        // out: the same `Arc` comes back, unchanged.
        assert!(matches!(*before, TierEntry::Unsupported));
        let after = engine.resolve(0, || unreachable!("recorded verdict recompiled"));
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(engine.verdicts.read().len(), 3);
        assert!(!engine.verdicts.read().contains_key(&9));
    }
}
