//! Plan execution with deterministic work-unit latency.
//!
//! Substitutes for the DBMS executor `Ψp` of the paper. Every physical
//! operator is *actually executed* over the in-memory tables, and the work
//! performed (tuples scanned, hash builds/probes, sort comparisons, index
//! descents, output tuples) is charged with the **same cost constants** the
//! optimizer uses for estimation. "True latency" is therefore:
//!
//! * deterministic — identical across runs, so experiments are reproducible;
//! * faithful — bad join orders and bad join methods really are slow, because
//!   the executor really does the extra work;
//! * divergent from the optimizer's estimate exactly where cardinality
//!   estimation errs, which is the repair opportunity FOSS learns.
//!
//! A work-unit **budget** implements the paper's dynamic timeout (1.5× the
//! original plan's latency): execution aborts with [`foss_common::FossError::Timeout`]
//! once the budget is exceeded, mid-operator (at chunk granularity) if
//! necessary.
//!
//! Operators come in two engines selected by [`ExecMode`]: the default
//! chunk-at-a-time engine ([`CHUNK_SIZE`]-row column chunks with selection
//! vectors) and the scalar row-at-a-time reference kept for differential
//! testing. Both charge identical work units and produce identical tuples.
//! Every plan runs on the calling thread; there is no other scheduling knob.
//! [`Executor::execute`] never materialises the `COUNT(*)` result it counts,
//! nor the slots of an intermediate tuple no later join reads;
//! [`Executor::execute_rows`] returns full tuples for the aggregator and the
//! differential tests. Hot left-deep shapes can additionally be compiled to a
//! [`FusedPipeline`], which drives the same join kernels and output sinks
//! (`probe`) as the chunked engine with the per-join analysis done once.

pub mod agg;
pub mod cache;
pub mod database;
pub mod exec;
pub mod fused;
mod probe;

pub use agg::{AggResult, AggRow};
pub use cache::{CacheStats, CachingExecutor, EvictionPolicy};
pub use database::Database;
pub use exec::{ExecMode, ExecOutcome, Executor, RowSet, CHUNK_SIZE};
pub use fused::FusedPipeline;
