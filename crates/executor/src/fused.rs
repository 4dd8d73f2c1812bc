//! Tier-2 execution: hot plan shapes compiled into fused pipelines.
//!
//! The chunked interpreter ([`crate::exec`]) walks the plan tree on every
//! execution: per-node `match` dispatch, per-join slot lookups
//! (`RowSet::slot_of` is a linear scan), a freshly collected
//! `extra_edge_columns` vector and a freshly derived emit layout per join.
//! For the serving path that is repeated analysis — `PlanDoctor` sees the
//! same few plan shapes over and over.
//!
//! [`FusedPipeline::compile`] runs that analysis **once** per shape: it
//! flattens a supported plan into a stage program with every slot, key
//! column and emit layout pre-resolved, and rejects (returns `None`)
//! anything else so the caller falls back to the interpreter. Execution
//! then drives the stages through the interpreter's own join kernels and
//! sinks (`crate::probe`). What gets materialised is the same in both
//! engines, because both derive it from the same two functions
//! (`probe::Liveness::of`, `probe::Layout::narrow`): in count mode
//! ([`FusedPipeline::execute`], like `Executor::execute`) a stage emits only
//! the row-id slots later stages read and the final join only counts; in
//! row mode every slot is live.
//!
//! # Supported shapes
//!
//! Left-deep plans whose joins are [`JoinMethod::Hash`] or index
//! nested-loop, each with at least one equi-edge — exactly the two join
//! flavours the DP expert and the steered optimizer emit on the serving
//! workloads. Leaf access paths (`SeqScan`/`IndexScan`) are unrestricted:
//! leaves delegate to the interpreter's own scan, so the two tiers cannot
//! drift. Everything else — merge joins, non-index nested loops, cross
//! joins, bushy trees — stays the interpreter's job.
//!
//! # Bit-identical metering
//!
//! Latency here is deterministic metered work, and floating-point addition
//! is not associative, so "about the same charges" would change trained
//! behaviour. The pipeline therefore does not re-implement the charges: scan
//! charges come from the shared scan implementation, it charges one
//! `rows × hash_build` per build side exactly where the interpreter does,
//! and everything per chunk — the probe or index-descent charge, the batched
//! fetch and output charges, the flush — happens inside the kernels both
//! engines call; only what an emitted tuple *keeps* differs. Timeout abort
//! points (the `spent`/`budget` pair in [`foss_common::FossError::Timeout`])
//! are bit-identical too; the differential proptests in
//! `tests/tiered_equivalence.rs` hold all of this across every workload.
//!
//! This module is on the serving path and must stay panic-free
//! (`foss-lint` enforces the no-`unwrap`/`expect`/`panic!` rule here, as it
//! does for `crates/service`).

use foss_common::Result;
use foss_optimizer::{AccessPath, CostModel, JoinMethod, PhysicalPlan, PlanNode};
use foss_query::{JoinEdge, Query};

use crate::database::Database;
use crate::exec::{ExecMode, ExecOutcome, Executor, RowSet, WorkMeter};
use crate::probe::{self, Count, Layout, Liveness, Outer, Rows, Sink};

/// The tier key for `(query, plan)` — see [`PhysicalPlan::shape_key`].
/// Re-exported here so tier callers need only the executor crate.
pub fn shape_key(query: &Query, plan: &PhysicalPlan) -> u64 {
    plan.shape_key(query)
}

/// One leaf read, delegated to the interpreter's scan.
#[derive(Debug, Clone, Copy)]
struct ScanStep {
    rel: usize,
    access: AccessPath,
}

/// An extra (non-key) join condition with its outer slot pre-resolved:
/// `(outer tuple slot, outer rel, outer column, inner column)`.
type ExtraEdge = (usize, usize, usize, usize);

/// Per-stage probe/emit layout: where the key and extra-edge columns live
/// in the incoming tuples, and which slots of a match survive into the
/// output.
#[derive(Debug, Clone)]
struct EmitView {
    /// Slot of the probe key's outer relation in the incoming layout.
    lslot: usize,
    /// Extra equi-edges resolved against the incoming layout.
    extra: Vec<ExtraEdge>,
    /// What each emitted tuple keeps.
    emit: Layout,
    /// Incoming tuple stride.
    stride_in: usize,
}

impl EmitView {
    /// Resolve the conditions of stage `pos` against its incoming relations
    /// `rels` and lay out its output for the relations `live` after it,
    /// leaving the outgoing relations in `rels`. `None` when a condition
    /// reads a relation the incoming tuples do not carry.
    fn resolve(
        rels: &mut Vec<usize>,
        inner_rel: usize,
        edges: &[JoinEdge],
        live: &Liveness,
        pos: usize,
    ) -> Option<Self> {
        let slot = |rel: usize| rels.iter().position(|&r| r == rel);
        let view = EmitView {
            lslot: slot(edges.first()?.left)?,
            extra: edges
                .iter()
                .skip(1)
                .map(|e| slot(e.left).map(|s| (s, e.left, e.left_column, e.right_column)))
                .collect::<Option<Vec<_>>>()?,
            emit: Layout::narrow(rels, inner_rel, live, pos),
            stride_in: rels.len(),
        };
        view.emit.apply(rels, inner_rel);
        Some(view)
    }
}

/// How a stage matches inner rows against the running outer pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Scan + build a hash table on the inner key, probe per outer chunk.
    Hash,
    /// Probe the inner table's hash index per outer tuple (the inner is
    /// never scanned; its predicates filter the fetched rows).
    IndexNl,
}

/// One join stage: match the inner relation against the running outer
/// pipeline, by hash build+probe or by index nested-loop fetch.
#[derive(Debug, Clone)]
struct JoinStage {
    kind: StageKind,
    inner: ScanStep,
    /// Outer relation and column of the key edge (`edges[0]`).
    key_left_rel: usize,
    key_left_col: usize,
    /// Inner (build-side) column of the key edge.
    key_right_col: usize,
    /// Layout for row-returning execution: full interpreter tuples.
    full: EmitView,
    /// Layout for count-mode execution: only the slots later stages read
    /// (empty for the last stage — it only counts).
    narrow: EmitView,
}

impl JoinStage {
    /// Match the inner relation against `outer` on the shared join kernels
    /// ([`crate::probe`]) — charge-for-charge the interpreter's `hash_join`
    /// and `index_nl_join` — handing each match to `sink`.
    fn join<S: Sink>(
        &self,
        exec: &Executor<'_>,
        query: &Query,
        outer: &Outer<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = exec.cost.params;
        match self.kind {
            StageKind::Hash => {
                let inner_rows =
                    exec.exec_scan(query, self.inner.rel, &self.inner.access, meter)?;
                meter.charge(inner_rows.len() as f64 * p.hash_build)?;
                let icol = exec.column_slice(query, self.inner.rel, self.key_right_col);
                probe::hash_join(outer, &inner_rows, icol, &p, meter, sink)
            }
            StageKind::IndexNl => {
                // The inner is never scanned: rows come out of its hash
                // index per outer tuple, with the relation's predicates
                // filtering each fetch.
                let (table, index, descent) =
                    exec.index_nl_inner(query, self.inner.rel, self.key_right_col)?;
                let preds = &query.relations[self.inner.rel].predicates;
                probe::index_nl_join(outer, table, index, preds, descent, &p, meter, sink)
            }
        }
    }
}

/// A plan shape compiled to a stage program. Immutable and `Send + Sync`;
/// the service publishes these through its tier cell and reuses one
/// instance across every query instance of the shape.
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    /// [`shape_key`] of the `(query, plan)` this was compiled from. The
    /// caller must only run queries whose shape key matches — the tier
    /// cache keys on it, so this holds by construction.
    shape: u64,
    first: ScanStep,
    stages: Vec<JoinStage>,
    /// Full result layout (relation per slot), for `execute_rows`.
    rels: Vec<usize>,
}

impl FusedPipeline {
    /// Compile `(query, plan)` into a fused pipeline, or `None` when the
    /// shape is unsupported (the caller then uses the interpreter).
    pub fn compile(query: &Query, plan: &PhysicalPlan) -> Option<FusedPipeline> {
        // Flatten the left spine; reject anything not left-deep with
        // hash or index-NL joins throughout.
        let mut joins: Vec<(&PlanNode, &PlanNode)> = Vec::new();
        let mut node: &PlanNode = &plan.root;
        let first = loop {
            match node {
                PlanNode::Scan {
                    relation, access, ..
                } => {
                    break ScanStep {
                        rel: *relation,
                        access: *access,
                    }
                }
                PlanNode::Join {
                    method,
                    left,
                    right,
                    edges,
                    index_nl,
                    ..
                } => {
                    let fusable = *index_nl || *method == JoinMethod::Hash;
                    if !fusable || edges.is_empty() {
                        return None;
                    }
                    joins.push((node, right.as_ref()));
                    node = left.as_ref();
                }
            }
        };
        joins.reverse();

        // Every join's inner scan and conditions, bottom-up; relations must
        // be distinct for slot resolution to be unambiguous.
        let mut layout = vec![first.rel];
        let mut parts: Vec<(StageKind, ScanStep, &[JoinEdge])> = Vec::with_capacity(joins.len());
        for (join, right) in &joins {
            let PlanNode::Scan {
                relation, access, ..
            } = **right
            else {
                return None;
            };
            let PlanNode::Join {
                edges, index_nl, ..
            } = *join
            else {
                return None;
            };
            let kind = if *index_nl {
                StageKind::IndexNl
            } else {
                StageKind::Hash
            };
            if layout.contains(&relation) || edges.iter().any(|e| e.right != relation) {
                return None;
            }
            parts.push((
                kind,
                ScanStep {
                    rel: relation,
                    access,
                },
                edges,
            ));
            layout.push(relation);
        }

        // Count mode keeps, after each stage, only the relations later
        // stages' conditions read (nothing after the last — it only counts);
        // row mode keeps them all.
        let relations = query.relation_count();
        let count_live = Liveness::of(relations, parts.iter().map(|&(_, _, edges)| edges));
        let all_live = Liveness::all(relations);
        let mut stages = Vec::with_capacity(parts.len());
        let mut full_rels = vec![first.rel];
        let mut narrow_rels = vec![first.rel];
        for (pos, &(kind, inner, edges)) in parts.iter().enumerate() {
            let key = edges[0];
            stages.push(JoinStage {
                kind,
                inner,
                key_left_rel: key.left,
                key_left_col: key.left_column,
                key_right_col: key.right_column,
                full: EmitView::resolve(&mut full_rels, inner.rel, edges, &all_live, pos)?,
                narrow: EmitView::resolve(&mut narrow_rels, inner.rel, edges, &count_live, pos)?,
            });
        }

        Some(FusedPipeline {
            shape: shape_key(query, plan),
            first,
            stages,
            rels: layout,
        })
    }

    /// The [`shape_key`] this pipeline was compiled for.
    pub fn shape(&self) -> u64 {
        self.shape
    }

    /// Execute in count mode: identical charges, row count and timeout
    /// accounting as the interpreter, but intermediate tuples carry only
    /// live slots and the final join materialises nothing.
    pub fn execute(
        &self,
        db: &Database,
        cost: CostModel,
        query: &Query,
        budget: Option<f64>,
    ) -> Result<ExecOutcome> {
        self.run(db, cost, query, budget, false).map(|(out, _)| out)
    }

    /// Execute and materialise the full result tuples (differential-test
    /// mode; the interpreter's `execute_rows` must agree bit-for-bit).
    pub fn execute_rows(
        &self,
        db: &Database,
        cost: CostModel,
        query: &Query,
        budget: Option<f64>,
    ) -> Result<(ExecOutcome, RowSet)> {
        self.run(db, cost, query, budget, true)
            .map(|(out, rows)| (out, rows.unwrap_or_default()))
    }

    fn run(
        &self,
        db: &Database,
        cost: CostModel,
        query: &Query,
        budget: Option<f64>,
        want_rows: bool,
    ) -> Result<(ExecOutcome, Option<RowSet>)> {
        let mut meter = WorkMeter::new(budget);
        // Leaf scans share the interpreter's implementation (and therefore
        // its charges) exactly; the fused win lives in the join chain.
        let exec = Executor::with_mode(db, cost, ExecMode::Chunked);

        let mut current: Vec<u32> =
            exec.exec_scan(query, self.first.rel, &self.first.access, &mut meter)?;
        let mut final_count = current.len() as u64;

        for (si, stage) in self.stages.iter().enumerate() {
            let view = if want_rows {
                &stage.full
            } else {
                &stage.narrow
            };
            let count_only = !want_rows && si + 1 == self.stages.len();
            let outer = Outer {
                data: &current,
                stride: view.stride_in,
                key_slot: view.lslot,
                key_col: exec.column_slice(query, stage.key_left_rel, stage.key_left_col),
                extra: view
                    .extra
                    .iter()
                    .map(|&(slot, lrel, lc, rc)| {
                        (
                            slot,
                            exec.column_slice(query, lrel, lc),
                            exec.column_slice(query, stage.inner.rel, rc),
                        )
                    })
                    .collect(),
            };
            if count_only {
                let mut count = Count::default();
                stage.join(&exec, query, &outer, &mut meter, &mut count)?;
                final_count = count.0;
            } else {
                let mut rows = Rows::new(&view.emit);
                stage.join(&exec, query, &outer, &mut meter, &mut rows)?;
                final_count = (rows.out.len() / view.emit.stride()) as u64;
                current = rows.out;
            }
        }

        let rows = want_rows.then(|| RowSet {
            rels: self.rels.clone(),
            data: current,
        });
        Ok((
            ExecOutcome {
                latency: meter.spent,
                rows: final_count,
            },
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_common::QueryId;
    use foss_optimizer::{CardinalityEstimator, Icp, TraditionalOptimizer};
    use foss_query::{Predicate, QueryBuilder};
    use foss_storage::{Column, Table};
    use std::sync::Arc;

    /// Three chained tables with predicates and duplicate-heavy join keys,
    /// so hash fan-out, chunked emission and filtering are all exercised.
    fn setup() -> (Database, TraditionalOptimizer, Query) {
        let mut schema = Schema::new();
        for name in ["a", "b", "c"] {
            schema
                .add_table(TableDef {
                    name: name.into(),
                    columns: vec![ColumnDef::indexed("k"), ColumnDef::plain("v")],
                })
                .unwrap();
        }
        let schema = Arc::new(schema);
        let col = |rows: usize, modk: i64, shift: i64| {
            Column::new((0..rows as i64).map(|i| (i * 7 + shift) % modk).collect())
        };
        let mk = |name: &str, rows: usize, shift: i64| {
            Table::new(
                name,
                vec![
                    ("k".into(), col(rows, 16, shift)),
                    ("v".into(), col(rows, 8, shift + 3)),
                ],
            )
            .unwrap()
        };
        let db = Database::new(
            schema.clone(),
            vec![mk("a", 600, 0), mk("b", 400, 5), mk("c", 500, 2)],
            8,
        )
        .unwrap();
        let opt = TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(db.stats_vec()),
            CostModel::default(),
        );
        let mut qb = QueryBuilder::new(QueryId::new(7), 0);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        let rc = qb.relation(schema.table_id("c").unwrap(), "c");
        qb.predicate(
            ra,
            Predicate::Range {
                column: 1,
                lo: 0,
                hi: 5,
            },
        );
        qb.predicate(
            rc,
            Predicate::Eq {
                column: 1,
                value: 3,
            },
        );
        qb.join(ra, 0, rb, 0);
        qb.join(rb, 0, rc, 0);
        let q = qb.build(&schema).unwrap();
        (db, opt, q)
    }

    fn all_hash_plan(opt: &TraditionalOptimizer, query: &Query) -> PhysicalPlan {
        let icp = Icp::new(
            (0..query.relation_count()).collect(),
            vec![JoinMethod::Hash; query.relation_count() - 1],
        )
        .unwrap();
        opt.optimize_with_hint(query, &icp).unwrap()
    }

    #[test]
    fn fused_matches_interpreter_exactly() {
        let (db, opt, query) = setup();
        let plan = all_hash_plan(&opt, &query);
        let fused = FusedPipeline::compile(&query, &plan).expect("all-hash left-deep compiles");
        let exec = Executor::new(&db, *opt.cost_model());
        let (io, irows) = exec.execute_rows(&query, &plan, None).unwrap();
        assert!(io.rows > 0, "fixture must produce tuples");
        let (fo, frows) = fused
            .execute_rows(&db, *opt.cost_model(), &query, None)
            .unwrap();
        assert_eq!(io.rows, fo.rows);
        assert_eq!(
            io.latency.to_bits(),
            fo.latency.to_bits(),
            "latency must be bit-identical"
        );
        assert_eq!(irows, frows, "tuples and order must match");
        // Count mode agrees with rows mode on outcome bits.
        let co = fused.execute(&db, *opt.cost_model(), &query, None).unwrap();
        assert_eq!(co, fo);
    }

    #[test]
    fn fused_timeout_accounting_is_bit_identical() {
        let (db, opt, query) = setup();
        let plan = all_hash_plan(&opt, &query);
        let fused = FusedPipeline::compile(&query, &plan).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let full = exec.execute(&query, &plan, None).unwrap().latency;
        for frac in [0.1, 0.45, 0.8, 0.99] {
            let budget = full * frac;
            let a = exec.execute(&query, &plan, Some(budget));
            let b = fused.execute(&db, *opt.cost_model(), &query, Some(budget));
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(ea), Err(eb)) => assert_eq!(
                    format!("{ea:?}"),
                    format!("{eb:?}"),
                    "abort points must agree at budget {budget}"
                ),
                (a, b) => panic!("tier disagreement at {budget}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn unsupported_shapes_decline_to_compile() {
        let (_db, opt, query) = setup();
        let hash = all_hash_plan(&opt, &query);
        assert!(FusedPipeline::compile(&query, &hash).is_some());
        let icp = Icp::new(
            (0..query.relation_count()).collect(),
            vec![JoinMethod::Merge; query.relation_count() - 1],
        )
        .unwrap();
        let merge = opt.optimize_with_hint(&query, &icp).unwrap();
        assert!(
            FusedPipeline::compile(&query, &merge).is_none(),
            "merge joins must fall back to the interpreter"
        );
        // A plain (non-index) nested loop declines; flipping the same node
        // to index-NL compiles — the flag is what the tier keys on.
        let mut plan = hash.clone();
        let PlanNode::Join {
            method, index_nl, ..
        } = &mut plan.root
        else {
            panic!("fixture root must be a join")
        };
        *method = JoinMethod::NestLoop;
        *index_nl = false;
        assert!(
            FusedPipeline::compile(&query, &plan).is_none(),
            "non-index nested loop must fall back to the interpreter"
        );
        let PlanNode::Join { index_nl, .. } = &mut plan.root else {
            panic!("fixture root must be a join")
        };
        *index_nl = true;
        assert!(
            FusedPipeline::compile(&query, &plan).is_some(),
            "index nested loop is a supported tier-2 shape"
        );
    }

    #[test]
    fn fused_index_nl_matches_interpreter_exactly() {
        let (db, opt, query) = setup();
        // The fixture's join keys are indexed, so a NestLoop hint completes
        // to index nested loops — the shape real serving traffic produces.
        let icp = Icp::new(
            (0..query.relation_count()).collect(),
            vec![JoinMethod::NestLoop; query.relation_count() - 1],
        )
        .unwrap();
        let plan = opt.optimize_with_hint(&query, &icp).unwrap();
        let has_inl = format!("{plan:?}").contains("index_nl: true");
        assert!(has_inl, "fixture hinted plan must use index-NL: {plan:?}");
        let fused = FusedPipeline::compile(&query, &plan).expect("index-NL spine compiles");
        let exec = Executor::new(&db, *opt.cost_model());
        let (io, irows) = exec.execute_rows(&query, &plan, None).unwrap();
        assert!(io.rows > 0, "fixture must produce tuples");
        let (fo, frows) = fused
            .execute_rows(&db, *opt.cost_model(), &query, None)
            .unwrap();
        assert_eq!(io.rows, fo.rows);
        assert_eq!(
            io.latency.to_bits(),
            fo.latency.to_bits(),
            "latency must be bit-identical"
        );
        assert_eq!(irows, frows, "tuples and order must match");
        let co = fused.execute(&db, *opt.cost_model(), &query, None).unwrap();
        assert_eq!(co, fo);
        // Timeout abort points agree bit-for-bit across the tiers.
        for frac in [0.1, 0.45, 0.8, 0.99] {
            let budget = io.latency * frac;
            let a = exec.execute(&query, &plan, Some(budget));
            let b = fused.execute(&db, *opt.cost_model(), &query, Some(budget));
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(ea), Err(eb)) => assert_eq!(
                    format!("{ea:?}"),
                    format!("{eb:?}"),
                    "abort points must agree at budget {budget}"
                ),
                (a, b) => panic!("tier disagreement at {budget}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn scan_only_plan_compiles_and_counts() {
        let (db, opt, query) = setup();
        // A bare scan of relation 0 (with its Range predicate).
        let plan = PhysicalPlan {
            root: PlanNode::Scan {
                relation: 0,
                access: AccessPath::SeqScan,
                est_rows: 1.0,
                est_cost: 1.0,
            },
        };
        let fused = FusedPipeline::compile(&query, &plan).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let (io, irows) = exec.execute_rows(&query, &plan, None).unwrap();
        let (fo, frows) = fused
            .execute_rows(&db, *opt.cost_model(), &query, None)
            .unwrap();
        assert_eq!(
            (io.rows, io.latency.to_bits()),
            (fo.rows, fo.latency.to_bits())
        );
        assert_eq!(irows, frows);
        assert_eq!(
            fused.execute(&db, *opt.cost_model(), &query, None).unwrap(),
            fo
        );
    }

    #[test]
    fn shape_key_is_the_plan_shape_key() {
        let (_db, opt, query) = setup();
        let plan = all_hash_plan(&opt, &query);
        assert_eq!(shape_key(&query, &plan), plan.shape_key(&query));
        let fused = FusedPipeline::compile(&query, &plan).unwrap();
        assert_eq!(fused.shape(), plan.shape_key(&query));
    }
}
