//! Query representation: select-project-join query graphs.
//!
//! Every benchmark query in the paper (JOB, filtered TPC-DS / Stack
//! templates) is a `COUNT(*)` over a select-project-join block; this crate
//! models exactly that: a set of base relations (with aliases, since JOB
//! reuses tables), equi-join edges between them, and per-relation scan
//! predicates.

pub mod graph;
pub mod predicate;

pub use graph::{JoinEdge, Query, QueryBuilder, Relation};
pub use predicate::Predicate;
