//! Shared foundation types for the FOSS reproduction workspace.
//!
//! This crate deliberately stays tiny: strongly-typed identifiers, a fast
//! non-cryptographic hasher for hot lookup tables, a deterministic RNG
//! splitter so every experiment is reproducible from a single seed, and the
//! workspace-wide error type.

pub mod codec;
pub mod error;
pub mod faults;
pub mod hash;
pub mod ids;
pub mod par;
pub mod rng;
pub mod stats;
pub mod sync;

pub use codec::{ByteReader, ByteWriter, Codec};
pub use error::{FossError, Result};
pub use faults::{FaultPlan, FaultPlanBuilder, FaultRule, FaultSite, FaultStats, FAULT_SITES};
pub use hash::{fx_hash_one, FxHashMap, FxHashSet};
pub use ids::{ColumnId, QueryId, TableId};
pub use par::run_sharded;
pub use rng::SeedStream;
pub use stats::percentile;
