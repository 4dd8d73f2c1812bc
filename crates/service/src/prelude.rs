//! One-stop import for the full public serving surface.
//!
//! ```
//! use foss_service::prelude::*;
//! ```
//!
//! Pulls in the in-process front end ([`PlanDoctor`] and its request /
//! decision types), the networked layer ([`PlanServer`], [`PlanClient`]
//! and the wire shapes) and the snapshot types a serving-only process
//! needs to boot from a trained [`PlannerSnapshot`] file.

pub use crate::breaker::{BreakerConfig, BreakerState, BreakerView, CircuitBreaker};
pub use crate::gate::{AdmissionGate, Permit};
pub use crate::http::{PlanClient, PlanOutcome, PlanServer, Rejection};
pub use crate::json::Json;
pub use crate::metrics::{MetricsRegistry, MetricsSnapshot};
pub use crate::wire::{
    metrics_to_json, parse_priority, priority_str, reason_str, PlanReply, PlanRequest, WireError,
};
pub use crate::{FallbackReason, PlanDecision, PlanDoctor, Priority, QueryRequest, ServiceConfig};
pub use foss_core::{PlannerSnapshot, SnapshotCell, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
