//! The names `benchmark/src/traced.rs` compiles against from the deleted
//! fused-pipeline tier; ROADMAP item 18 moves that lane off them and
//! deletes this module. Every plan runs on the chunked interpreter.

use std::sync::Arc;

use foss_optimizer::PhysicalPlan;
use foss_query::Query;

/// Field-less; kept for `traced.rs` until ROADMAP item 18.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierConfig;

/// Kept for `traced.rs` until ROADMAP item 18; `Compiled` cannot be built.
#[derive(Debug)]
pub enum TierEntry {
    /// Uninhabited.
    Compiled(std::convert::Infallible),
    /// The plan runs on the interpreter.
    Unsupported,
}

/// Kept for `traced.rs` until ROADMAP item 18.
#[derive(Debug, Default)]
pub struct TierEngine;

impl TierEngine {
    /// Kept for `traced.rs` until ROADMAP item 18.
    pub fn new(_cfg: TierConfig) -> Self {
        Self
    }

    /// Always `None`; kept for `traced.rs` until ROADMAP item 18.
    pub fn pipeline_for(&self, _query: &Query, _plan: &PhysicalPlan) -> Option<Arc<TierEntry>> {
        None
    }
}
