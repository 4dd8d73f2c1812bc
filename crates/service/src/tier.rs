//! Tiered execution: hot plan shapes compile to fused pipelines.
//!
//! The serving trace is dominated by a handful of recurring plan templates
//! (the doctor steers toward them by construction), yet tier 1 — the
//! chunked interpreter — pays per-operator dispatch on every execution.
//! This module is the interpreter→hot-count→compiled ladder around
//! [`foss_executor::FusedPipeline`]:
//!
//! 1. [`HotShapeTracker`] counts executions per plan **shape**
//!    ([`foss_executor::fused::shape_key`], a widening of
//!    `PhysicalPlan::fingerprint` that also hashes tables, predicate
//!    columns and join edges — but *not* predicate constants, so every
//!    instance of a query template shares one shape).
//! 2. Past [`TierConfig::hot_threshold`] executions, one thread wins the
//!    compile claim and builds the [`FusedPipeline`]; unsupported shapes
//!    are negative-cached so the check is paid once.
//! 3. Compiled pipelines are published through [`TierCell`], a
//!    generation-counted copy-on-write map with the same swap-then-bump
//!    hot-swap discipline as `foss_core::SnapshotCell`: readers are
//!    lock-free-ish (one `RwLock` read of an `Arc` they clone), never see
//!    a torn pipeline, and in-flight executions finish on the map they
//!    loaded.
//!
//! Fallback is graceful and total: any shape the compiler declines runs on
//! the interpreter forever (counted in `tier_fallbacks`), and the fused
//! tier charges the identical work-unit sequence, so flipping
//! [`TierMode`] can never change results, recorded latencies or timeout
//! behaviour — only wall-clock cost. `FOSS_TIER` (env) and `--tier` (CLI)
//! force either tier; see [`TierMode::from_env`].

use std::sync::Arc;

use foss_common::sync::atomic::{AtomicU64, Ordering};
use foss_common::sync::{Mutex, RwLock};
use foss_common::{FxHashMap, FxHashSet};
use foss_executor::FusedPipeline;
use foss_optimizer::PhysicalPlan;
use foss_query::Query;

/// Which execution tier `submit` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Tier 1 only: always interpret; no counting, no compilation.
    Interpreter,
    /// Count per-shape executions and compile past the hot threshold.
    #[default]
    Auto,
    /// Compile on first sight (used by the differential tests to exercise
    /// the fused path below the hot threshold, and by benches for A/B).
    Force,
}

impl TierMode {
    /// Parse a mode name: `off`/`interpreter`/`1` → [`TierMode::Interpreter`],
    /// `auto` → [`TierMode::Auto`], `force`/`fused`/`2` → [`TierMode::Force`].
    pub fn parse(s: &str) -> Option<TierMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "interpreter" | "1" => Some(TierMode::Interpreter),
            "auto" => Some(TierMode::Auto),
            "force" | "fused" | "2" => Some(TierMode::Force),
            _ => None,
        }
    }

    /// The `FOSS_TIER` environment override, if set and valid (an invalid
    /// value is ignored rather than guessed at — the CLI layer validates
    /// loudly, this is the quiet library path).
    pub fn from_env() -> Option<TierMode> {
        std::env::var("FOSS_TIER")
            .ok()
            .as_deref()
            .and_then(Self::parse)
    }
}

/// Tiering knobs, embedded in `ServiceConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Tier selection. Taken as given by `PlanDoctor`; only the
    /// `plan-doctor` CLI resolves `FOSS_TIER` (and `--tier`) into it.
    pub mode: TierMode,
    /// Executions of one shape before it is considered hot and compiled
    /// (ignored under [`TierMode::Force`]).
    pub hot_threshold: u32,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            mode: TierMode::Auto,
            hot_threshold: 8,
        }
    }
}

/// Tier counters for metrics (`tier_compiles` / `tier_hits` /
/// `tier_fallbacks` in the metrics snapshot and wire JSON).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Shapes successfully compiled to fused pipelines.
    pub compiles: u64,
    /// Executions served by a fused pipeline.
    pub hits: u64,
    /// Executions of hot-but-unsupported shapes that fell back to the
    /// interpreter (cold interpreted executions are not fallbacks — the
    /// tier never promised them anything).
    pub fallbacks: u64,
}

/// Counts executions per plan shape; interior-mutable and shared across
/// submit threads.
#[derive(Debug, Default)]
pub struct HotShapeTracker {
    counts: Mutex<FxHashMap<u64, u32>>,
}

impl HotShapeTracker {
    /// Record one execution of `shape` and return the new count.
    pub fn bump(&self, shape: u64) -> u32 {
        let mut counts = self.counts.lock();
        let c = counts.entry(shape).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// Shapes tracked so far.
    pub fn len(&self) -> usize {
        self.counts.lock().len()
    }

    /// Whether no shape has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.counts.lock().is_empty()
    }
}

/// A generation-counted, copy-on-write published map of compiled artifacts
/// — the tier's `SnapshotCell` analogue, keyed by shape.
///
/// Readers [`TierCell::get`] against an immutable `Arc` map; publishers
/// clone-insert-swap under the write lock and then bump the generation
/// (`Release`, mirroring `SnapshotCell`'s swap-then-bump), so an observed
/// generation `g` guarantees a subsequent load sees publish `g`'s entry.
/// Entries are immutable once published — a shape is compiled at most
/// once, enforced by the claim set: [`TierCell::claim`] hands exactly one
/// caller the right to compile a given key, and the claim releases on drop
/// so a compiler that declines (unsupported shape) does not wedge the key.
#[derive(Debug)]
pub struct TierCell<T> {
    slot: RwLock<Arc<FxHashMap<u64, Arc<T>>>>,
    generation: AtomicU64,
    claims: Mutex<FxHashSet<u64>>,
}

impl<T> Default for TierCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TierCell<T> {
    /// An empty cell at generation 0.
    pub fn new() -> Self {
        Self {
            slot: RwLock::new(Arc::new(FxHashMap::default())),
            generation: AtomicU64::new(0),
            claims: Mutex::new(FxHashSet::default()),
        }
    }

    /// The whole published map (an immutable snapshot; later publishes do
    /// not change it).
    pub fn load(&self) -> Arc<FxHashMap<u64, Arc<T>>> {
        self.slot.read().clone()
    }

    /// The published entry for `key`, if any.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        self.slot.read().get(&key).cloned()
    }

    /// Publishes so far. A reader that observes generation `g` is
    /// guaranteed the *next* [`TierCell::load`] contains every entry
    /// published up to `g`.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Claim the right to compile `key`. Returns `None` when `key` is
    /// already published or another thread holds the claim — the loser
    /// simply keeps interpreting until the winner publishes.
    pub fn claim(&self, key: u64) -> Option<TierClaim<'_, T>> {
        if self.slot.read().contains_key(&key) {
            return None;
        }
        let mut claims = self.claims.lock();
        if !claims.insert(key) {
            return None;
        }
        // Re-check under the claim: a racer may have published between the
        // optimistic read above and our insert. Its claim releases only
        // after the slot swap, so holding the claims lock this read cannot
        // miss the entry — each key is published at most once.
        if self.slot.read().contains_key(&key) {
            claims.remove(&key);
            return None;
        }
        Some(TierClaim { cell: self, key })
    }
}

/// RAII compile claim from [`TierCell::claim`]; dropped without
/// [`TierClaim::publish`], the key becomes claimable again.
#[derive(Debug)]
pub struct TierClaim<'a, T> {
    cell: &'a TierCell<T>,
    key: u64,
}

impl<T> TierClaim<'_, T> {
    /// Publish `value` under the claimed key: copy-on-write insert, swap,
    /// then generation bump.
    pub fn publish(self, value: T) -> Arc<T> {
        let value = Arc::new(value);
        {
            let mut slot = self.cell.slot.write();
            let mut next: FxHashMap<u64, Arc<T>> = (**slot).clone();
            next.insert(self.key, value.clone());
            *slot = Arc::new(next);
        }
        self.cell.generation.fetch_add(1, Ordering::Release);
        value
        // `self` drops here, releasing the claim set entry.
    }
}

impl<T> Drop for TierClaim<'_, T> {
    fn drop(&mut self) {
        self.cell.claims.lock().remove(&self.key);
    }
}

/// A published compile verdict for one shape.
#[derive(Debug)]
pub enum TierEntry {
    /// The shape compiled; executions route through the fused pipeline.
    Compiled(FusedPipeline),
    /// The shape is unsupported; executions stay on the interpreter (and
    /// count as `tier_fallbacks`), but the compile attempt is not repeated.
    Unsupported,
}

/// The service's tier-2 engine: tracker + cell + counters, consulted by
/// `PlanDoctor` on every execution.
#[derive(Debug)]
pub struct TierEngine {
    mode: TierMode,
    hot_threshold: u32,
    tracker: HotShapeTracker,
    cell: TierCell<TierEntry>,
    compiles: AtomicU64,
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl TierEngine {
    /// An engine in `mode` with the given hot threshold.
    pub fn new(cfg: TierConfig) -> Self {
        Self {
            mode: cfg.mode,
            hot_threshold: cfg.hot_threshold.max(1),
            tracker: HotShapeTracker::default(),
            cell: TierCell::new(),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The mode in effect.
    pub fn mode(&self) -> TierMode {
        self.mode
    }

    /// Tier cell generation (bumped once per published compile verdict).
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// The fused pipeline to execute `(query, plan)` with, or `None` to
    /// interpret. Bumps the hot counter, triggers at most one compile per
    /// shape, and maintains the `tier_*` counters.
    pub fn pipeline_for(&self, query: &Query, plan: &PhysicalPlan) -> Option<Arc<TierEntry>> {
        if self.mode == TierMode::Interpreter {
            return None;
        }
        let shape = foss_executor::fused::shape_key(query, plan);
        if let Some(entry) = self.cell.get(shape) {
            match *entry {
                TierEntry::Compiled(_) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(entry);
                }
                TierEntry::Unsupported => {
                    self.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        if self.mode == TierMode::Auto && self.tracker.bump(shape) < self.hot_threshold {
            return None;
        }
        let Some(claim) = self.cell.claim(shape) else {
            // A racer is compiling (or just published — either way the
            // next execution of this shape will see the cell); interpret
            // this one.
            return None;
        };
        match FusedPipeline::compile(query, plan) {
            Some(pipeline) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(claim.publish(TierEntry::Compiled(pipeline)))
            }
            None => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                claim.publish(TierEntry::Unsupported);
                None
            }
        }
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
    fn tier_mode_parses_env_spellings() {
        for (s, want) in [
            ("off", TierMode::Interpreter),
            ("Interpreter", TierMode::Interpreter),
            ("1", TierMode::Interpreter),
            ("auto", TierMode::Auto),
            ("FORCE", TierMode::Force),
            ("fused", TierMode::Force),
            ("2", TierMode::Force),
        ] {
            assert_eq!(TierMode::parse(s), Some(want), "spelling {s:?}");
        }
        assert_eq!(TierMode::parse("warp"), None);
    }

    #[test]
    fn tracker_counts_per_shape() {
        let t = HotShapeTracker::default();
        assert!(t.is_empty());
        assert_eq!(t.bump(7), 1);
        assert_eq!(t.bump(7), 2);
        assert_eq!(t.bump(9), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn tier_cell_claim_is_exclusive_and_released_on_drop() {
        let cell: TierCell<u32> = TierCell::new();
        let claim = cell.claim(5).expect("first claim wins");
        assert!(cell.claim(5).is_none(), "claimed key is exclusive");
        assert!(cell.claim(6).is_some(), "other keys are independent");
        drop(claim);
        // Released without publishing: claimable again.
        let claim = cell.claim(5).expect("dropped claim frees the key");
        claim.publish(42);
        assert_eq!(cell.generation(), 1);
        assert_eq!(cell.get(5).as_deref(), Some(&42));
        assert!(cell.claim(5).is_none(), "published key is never reclaimed");
    }

    #[test]
    fn tier_cell_publish_is_copy_on_write() {
        let cell: TierCell<u32> = TierCell::new();
        let before = cell.load();
        for key in 0..3 {
            if let Some(c) = cell.claim(key) {
                c.publish(key as u32 * 10);
            }
        }
        assert!(before.is_empty(), "loaded maps are immutable snapshots");
        assert_eq!(cell.generation(), 3);
        assert_eq!(cell.load().len(), 3);
        assert_eq!(cell.get(2).as_deref(), Some(&20));
        assert_eq!(cell.get(9), None);
    }

    #[test]
    fn interpreter_mode_never_tracks_or_compiles() {
        let engine = TierEngine::new(TierConfig {
            mode: TierMode::Interpreter,
            hot_threshold: 1,
        });
        // No query/plan needed: the mode check precedes everything.
        assert_eq!(engine.stats(), TierStats::default());
        assert_eq!(engine.mode(), TierMode::Interpreter);
        assert!(engine.tracker.is_empty());
    }
}
