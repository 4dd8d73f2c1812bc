//! The physical operator interpreter.
//!
//! Two interchangeable engines live behind [`ExecMode`]:
//!
//! * **Chunked** (the default) — chunk-at-a-time execution: every operator
//!   consumes and produces batches of [`CHUNK_SIZE`] tuples. Scans evaluate
//!   predicates column-at-a-time over contiguous slices and refine a
//!   selection vector; joins hoist key columns out of the loop, gather probe
//!   keys into chunk-local buffers, and emit (project) matched tuples in
//!   bulk. The hash build+probe and index nested-loop loops are the shared
//!   kernels in `crate::probe`, which the fused tier runs too. Every join
//!   emits into a `probe::Sink`: [`Executor::execute`] runs in *count mode* —
//!   the root join counts instead of storing its matches and the joins below
//!   it keep only the slots a later join reads — while
//!   [`Executor::execute_rows`] keeps every slot of every tuple.
//! * **Scalar** — the reference row-at-a-time interpreter, kept for
//!   differential testing (see the chunked-vs-scalar property tests). It
//!   always materialises full tuples.
//!
//! Both engines share one *chunk-granular metering discipline*: work-unit
//! charges are accrued per chunk, in the same order, with the same floating
//! point operations. Latencies are therefore **bit-identical** across modes
//! and between count mode and materialising execution, and results match
//! row-for-row in the same order — switching engines can never change
//! trained-model behaviour.

use foss_common::{FossError, Result};
use foss_optimizer::{AccessPath, CostModel, JoinMethod, PhysicalPlan, PlanNode};
use foss_query::{JoinEdge, Predicate, Query};
use foss_storage::{HashIndex, Table};

use crate::database::Database;
use crate::probe::{Count, Layout, Liveness, Rows, Sink};

/// Rows per execution chunk (tuples processed between two meter charges).
pub const CHUNK_SIZE: usize = 1024;

/// Which operator implementations the interpreter dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Chunk-at-a-time operators over column chunks with selection vectors.
    #[default]
    Chunked,
    /// Row-at-a-time reference interpreter (differential-testing flag).
    Scalar,
}

/// Result of executing a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// Deterministic latency in work units.
    pub latency: f64,
    /// Number of result tuples (`COUNT(*)` semantics).
    pub rows: u64,
}

/// Materialised result: tuples of row ids, one slot per joined relation.
///
/// Public so differential tests can compare full result sets (not just
/// counts) across [`ExecMode`]s; see [`Executor::execute_rows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSet {
    /// Relation index corresponding to each tuple slot.
    pub rels: Vec<usize>,
    /// Flattened tuples; stride = `rels.len()`.
    pub data: Vec<u32>,
    /// The query's projection list (group key and aggregate input columns),
    /// populated at the plan root by [`Executor::execute_rows`] so downstream
    /// consumers — the group-by aggregator above all — know which columns to
    /// gather out of the tuples. Empty for plain `COUNT(*)` queries.
    pub proj: Vec<foss_query::ColRef>,
}

impl RowSet {
    /// A result set with an empty projection list (operators build these;
    /// the root attaches the query's projection).
    pub(crate) fn bare(rels: Vec<usize>, data: Vec<u32>) -> Self {
        Self {
            rels,
            data,
            proj: Vec::new(),
        }
    }

    pub(crate) fn stride(&self) -> usize {
        self.rels.len()
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        if self.rels.is_empty() {
            0
        } else {
            self.data.len() / self.rels.len()
        }
    }

    /// True when the result holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tuple(&self, i: usize) -> &[u32] {
        let s = self.stride();
        &self.data[i * s..(i + 1) * s]
    }

    pub(crate) fn slot_of(&self, rel: usize) -> usize {
        self.rels
            .iter()
            .position(|&r| r == rel)
            .expect("join edge references un-joined relation")
    }
}

/// Hoisted per-edge extra join-condition columns:
/// `(outer tuple slot, outer column data, inner column data)`.
pub(crate) type EdgeCols<'a> = Vec<(usize, &'a [i64], &'a [i64])>;

/// Executes physical plans against a [`Database`].
pub struct Executor<'a> {
    db: &'a Database,
    pub(crate) cost: CostModel,
    mode: ExecMode,
}

/// One join of a plan, ready to run: its conditions and its executed inputs.
struct JoinStep<'p> {
    method: JoinMethod,
    index_nl: bool,
    edges: &'p [JoinEdge],
    /// The outer (probe) side, narrowed to what this join and those above read.
    outer: RowSet,
    /// The inner relation — always a base-table scan (plans are left-deep).
    inner_rel: usize,
    /// The inner scan's row ids; empty for an index nested loop, which
    /// probes the relation's index instead of scanning it.
    inner: Vec<u32>,
}

pub(crate) struct WorkMeter {
    pub(crate) spent: f64,
    pub(crate) budget: f64,
}

impl WorkMeter {
    /// A fresh meter; no budget means unlimited.
    pub(crate) fn new(budget: Option<f64>) -> Self {
        Self {
            spent: 0.0,
            budget: budget.unwrap_or(f64::INFINITY),
        }
    }

    pub(crate) fn charge(&mut self, amount: f64) -> Result<()> {
        self.spent += amount;
        if self.spent > self.budget {
            Err(FossError::Timeout {
                spent: self.spent as u64,
                budget: self.budget as u64,
            })
        } else {
            Ok(())
        }
    }
}

/// Fill `sel` with the row ids in `start..end` passing `pred` over
/// contiguous column data. The predicate variant is matched once, outside
/// the loop, and rows are written branchlessly (unconditional store, the
/// cursor advances by the predicate bit) so selectivity near 50% doesn't
/// stall the pipeline on mispredictions.
///
/// Out of line on purpose, like [`refine_selection`]: each has one hot caller,
/// so LLVM would inline them into `exec_scan`, where the same loops compile
/// about 40% slower (`exec/scan_filter` 33 → 47 µs on the 2-core box).
#[inline(never)]
pub(crate) fn filter_chunk(
    pred: &Predicate,
    col: &[i64],
    start: usize,
    end: usize,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    sel.resize(end - start, 0);
    let out = &mut sel[..end - start];
    let mut n = 0usize;
    match *pred {
        Predicate::Eq { value, .. } => {
            for (off, &v) in col[start..end].iter().enumerate() {
                out[n] = (start + off) as u32;
                n += (v == value) as usize;
            }
        }
        Predicate::Range { lo, hi, .. } => {
            for (off, &v) in col[start..end].iter().enumerate() {
                out[n] = (start + off) as u32;
                n += (lo <= v && v <= hi) as usize;
            }
        }
    }
    sel.truncate(n);
}

/// Accumulates per-unit work (emitted tuples, fetched index rows) and
/// charges the meter in [`CHUNK_SIZE`] quanta, so a join can overshoot its
/// budget by at most ~one chunk of unmetered output while materialising
/// matches. Both engines drive this with identical unit counts in identical
/// order, keeping the floating-point charge sequence — and therefore the
/// latency — bit-identical across [`ExecMode`]s.
pub(crate) struct BatchCharge {
    pending: usize,
    unit: f64,
}

impl BatchCharge {
    pub(crate) fn new(unit: f64) -> Self {
        Self { pending: 0, unit }
    }

    /// Record `n` units, charging whenever a full chunk has accumulated.
    #[inline]
    pub(crate) fn add(&mut self, n: usize, meter: &mut WorkMeter) -> Result<()> {
        self.pending += n;
        if self.pending >= CHUNK_SIZE {
            let pend = std::mem::take(&mut self.pending);
            meter.charge(pend as f64 * self.unit)?;
        }
        Ok(())
    }

    /// Record one unit (an emitted tuple).
    #[inline]
    pub(crate) fn emitted(&mut self, meter: &mut WorkMeter) -> Result<()> {
        self.add(1, meter)
    }

    /// Record `n` units exactly as `n` calls of [`BatchCharge::emitted`]
    /// would — a full `CHUNK_SIZE × unit` charge each time the pending count
    /// reaches [`CHUNK_SIZE`] — in O(n / CHUNK_SIZE).
    #[inline]
    pub(crate) fn add_each(&mut self, mut n: usize, meter: &mut WorkMeter) -> Result<()> {
        while self.pending + n >= CHUNK_SIZE {
            n -= CHUNK_SIZE - self.pending;
            self.pending = 0;
            meter.charge(CHUNK_SIZE as f64 * self.unit)?;
        }
        self.pending += n;
        Ok(())
    }

    /// Charge whatever remains below one chunk.
    pub(crate) fn flush(&mut self, meter: &mut WorkMeter) -> Result<()> {
        let pend = std::mem::take(&mut self.pending);
        meter.charge(pend as f64 * self.unit)
    }
}

/// Refine a selection vector in place by `pred` over `col`, with the same
/// branchless compaction as [`filter_chunk`] (and out of line for the same
/// reason).
#[inline(never)]
pub(crate) fn refine_selection(pred: &Predicate, col: &[i64], sel: &mut Vec<u32>) {
    let mut n = 0usize;
    match *pred {
        Predicate::Eq { value, .. } => {
            for i in 0..sel.len() {
                let r = sel[i];
                sel[n] = r;
                n += (col[r as usize] == value) as usize;
            }
        }
        Predicate::Range { lo, hi, .. } => {
            for i in 0..sel.len() {
                let r = sel[i];
                sel[n] = r;
                let v = col[r as usize];
                n += (lo <= v && v <= hi) as usize;
            }
        }
    }
    sel.truncate(n);
}

impl<'a> Executor<'a> {
    /// Chunked executor over `db`, charging with `cost`'s constants (pass the
    /// same model the optimizer uses so the two live on one scale).
    pub fn new(db: &'a Database, cost: CostModel) -> Self {
        Self::with_mode(db, cost, ExecMode::default())
    }

    /// Executor with an explicit engine (`ExecMode::Scalar` keeps the
    /// row-at-a-time reference path for differential testing).
    pub fn with_mode(db: &'a Database, cost: CostModel, mode: ExecMode) -> Self {
        Self { db, cost, mode }
    }

    /// The engine this executor dispatches to.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Execute `plan` for `query` and count its result.
    ///
    /// `budget` is the dynamic-timeout work-unit budget; `None` means
    /// unlimited. On timeout the error carries the spent/budget amounts so
    /// the training loop can label the plan.
    ///
    /// The chunked engine runs this in *count mode*: the root join counts its
    /// matches instead of storing them, and every join below it emits only
    /// the slots a later join's conditions read. Charges, row count and
    /// timeout accounting are those of [`Executor::execute_rows`] bit for bit;
    /// the scalar reference simply materialises and counts.
    pub fn execute(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<ExecOutcome> {
        if self.mode == ExecMode::Scalar {
            return self.execute_rows(query, plan, budget).map(|(out, _)| out);
        }
        let mut meter = WorkMeter::new(budget);
        let (rows, _) = self.run(query, plan, false, &mut meter)?;
        Ok(ExecOutcome {
            latency: meter.spent,
            rows,
        })
    }

    /// Like [`Executor::execute`], but materialises and returns the full
    /// result tuples, one slot per joined relation — what the aggregator
    /// folds and what the differential tests compare across [`ExecMode`]s
    /// and against the fused tier.
    pub fn execute_rows(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<(ExecOutcome, RowSet)> {
        let mut meter = WorkMeter::new(budget);
        let rows = self.exec_full(query, plan, &mut meter)?;
        let outcome = ExecOutcome {
            latency: meter.spent,
            rows: rows.len() as u64,
        };
        Ok((outcome, rows))
    }

    /// Like [`Executor::execute_rows`], but folds the join result through
    /// the query's aggregation spec ([`foss_query::AggSpec`], defaulting to
    /// a global `COUNT(*)`) chunk at a time. The returned outcome's
    /// `latency` includes the aggregation charges and its `rows` counts the
    /// aggregate's *output* groups; the fold runs over the final tuple set,
    /// so the result and latency stay bit-identical across [`ExecMode`]s.
    pub fn execute_agg(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<(ExecOutcome, crate::agg::AggResult)> {
        let mut meter = WorkMeter::new(budget);
        let rows = self.exec_full(query, plan, &mut meter)?;
        let agg = crate::agg::aggregate(self, query, &rows, &mut meter)?;
        let outcome = ExecOutcome {
            latency: meter.spent,
            rows: agg.rows.len() as u64,
        };
        Ok((outcome, agg))
    }

    /// The plan's full-width result (every relation live) with the query's
    /// projection attached.
    fn exec_full(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        meter: &mut WorkMeter,
    ) -> Result<RowSet> {
        let (_, rows) = self.run(query, plan, true, meter)?;
        let mut rows = rows.unwrap_or_else(|| RowSet::bare(Vec::new(), Vec::new()));
        rows.proj = query.projection();
        Ok(rows)
    }

    /// Run `plan` — its leftmost scan, then its joins bottom-up (plans are
    /// left-deep: every join's inner side is a base-table scan) — and return
    /// the result's row count, with the full-width tuples if `want_rows`.
    /// Without them the root join only counts and the joins below it emit
    /// just the slots a join above reads.
    fn run(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        want_rows: bool,
        meter: &mut WorkMeter,
    ) -> Result<(u64, Option<RowSet>)> {
        let mut joins = Vec::new();
        let mut node = &plan.root;
        let mut outer = loop {
            match node {
                PlanNode::Scan {
                    relation, access, ..
                } => {
                    let data = self.exec_scan(query, *relation, access, meter)?;
                    break RowSet::bare(vec![*relation], data);
                }
                PlanNode::Join {
                    method,
                    left,
                    right,
                    edges,
                    index_nl,
                    ..
                } => {
                    joins.push((*method, *index_nl, edges.as_slice(), right.as_ref()));
                    node = left;
                }
            }
        };
        joins.reverse();
        let relations = query.relation_count();
        let live = if want_rows {
            Liveness::all(relations)
        } else {
            Liveness::of(relations, joins.iter().map(|j| j.2))
        };
        for (pos, &(method, index_nl, edges, right)) in joins.iter().enumerate() {
            let PlanNode::Scan {
                relation, access, ..
            } = right
            else {
                return Err(FossError::InvalidPlan(
                    "plans are left-deep: a join's inner side must be a scan".into(),
                ));
            };
            let step = JoinStep {
                method,
                index_nl,
                edges,
                inner_rel: *relation,
                // An index nested loop probes the inner's index in place.
                inner: if index_nl {
                    Vec::new()
                } else {
                    self.exec_scan(query, *relation, access, meter)?
                },
                outer,
            };
            if !want_rows && pos + 1 == joins.len() {
                let mut count = Count::default();
                self.join(query, &step, meter, &mut count)?;
                return Ok((count.0, None));
            }
            let layout = Layout::narrow(&step.outer.rels, step.inner_rel, &live, pos);
            let mut rows = Rows::new(&layout);
            self.join(query, &step, meter, &mut rows)?;
            let mut rels = step.outer.rels;
            layout.apply(&mut rels, step.inner_rel);
            outer = RowSet::bare(rels, rows.out);
        }
        Ok((outer.len() as u64, want_rows.then_some(outer)))
    }

    /// Run one join, handing every match to `sink`.
    fn join<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        if step.index_nl {
            return self.index_nl_join(query, step, meter, sink);
        }
        match step.method {
            JoinMethod::Hash | JoinMethod::Merge if step.edges.is_empty() => {
                self.cross_join(step, meter, sink)
            }
            JoinMethod::Hash => self.hash_join(query, step, meter, sink),
            JoinMethod::Merge => self.merge_join(query, step, meter, sink),
            JoinMethod::NestLoop => self.nl_join(query, step, meter, sink),
        }
    }

    /// Backing column slice for `(rel, col)` — hoisted out of inner loops by
    /// the chunked operators.
    #[inline]
    pub(crate) fn column_slice(&self, query: &Query, rel: usize, col: usize) -> &'a [i64] {
        self.db
            .table(query.relations[rel].table)
            .column(col)
            .values()
    }

    /// Leaf scan shared with the fused tier-2 engine (`crate::fused`): both
    /// tiers must charge and filter identically, so there is exactly one
    /// implementation.
    pub(crate) fn exec_scan(
        &self,
        query: &Query,
        rel: usize,
        access: &AccessPath,
        meter: &mut WorkMeter,
    ) -> Result<Vec<u32>> {
        let relation = &query.relations[rel];
        let table = self.db.table(relation.table);
        let preds = &relation.predicates;
        let p = &self.cost.params;
        match access {
            AccessPath::SeqScan => {
                let n = table.row_count();
                meter.charge(n as f64 * (p.cpu_tuple + p.pred_eval * preds.len() as f64))?;
                let mut out = Vec::new();
                match self.mode {
                    ExecMode::Scalar => {
                        'rows: for row in 0..n {
                            for pr in preds {
                                if !pr.matches(table.column(pr.column()).get(row)) {
                                    continue 'rows;
                                }
                            }
                            out.push(row as u32);
                        }
                    }
                    ExecMode::Chunked => {
                        let cols: Vec<&[i64]> = preds
                            .iter()
                            .map(|pr| table.column(pr.column()).values())
                            .collect();
                        let mut sel: Vec<u32> = Vec::with_capacity(CHUNK_SIZE);
                        for start in (0..n).step_by(CHUNK_SIZE) {
                            let end = (start + CHUNK_SIZE).min(n);
                            if preds.is_empty() {
                                out.extend(start as u32..end as u32);
                                continue;
                            }
                            // First predicate streams the contiguous chunk;
                            // the rest refine the selection vector.
                            filter_chunk(&preds[0], cols[0], start, end, &mut sel);
                            for (pr, col) in preds.iter().zip(&cols).skip(1) {
                                refine_selection(pr, col, &mut sel);
                            }
                            out.extend_from_slice(&sel);
                        }
                    }
                }
                Ok(out)
            }
            AccessPath::IndexScan { column } => {
                let driving = preds.iter().find(|pr| pr.column() == *column).copied();
                let residual: Vec<Predicate> = preds
                    .iter()
                    .filter(|pr| pr.column() != *column)
                    .copied()
                    .collect();
                let n = table.row_count() as f64;
                let mut matches: Vec<u32> = match driving {
                    Some(Predicate::Eq { value, .. }) => {
                        if let Some(h) = table.hash_index(*column) {
                            h.lookup(value).to_vec()
                        } else if let Some(s) = table.sorted_index(*column) {
                            s.equal(value).collect()
                        } else {
                            return Err(FossError::InvalidPlan(format!(
                                "index scan on unindexed column {column}"
                            )));
                        }
                    }
                    Some(Predicate::Range { lo, hi, .. }) => {
                        let s = table.sorted_index(*column).ok_or_else(|| {
                            FossError::InvalidPlan(format!(
                                "range index scan on unindexed column {column}"
                            ))
                        })?;
                        s.range(lo, hi).collect()
                    }
                    None => {
                        // Index-only marker without a driving predicate:
                        // degenerate full index scan.
                        (0..table.row_count() as u32).collect()
                    }
                };
                meter.charge(
                    self.cost
                        .index_scan(n, matches.len() as f64, residual.len()),
                )?;
                if !residual.is_empty() {
                    match self.mode {
                        ExecMode::Scalar => {
                            matches.retain(|&row| {
                                residual.iter().all(|pr| {
                                    pr.matches(table.column(pr.column()).get(row as usize))
                                })
                            });
                        }
                        ExecMode::Chunked => {
                            // Predicate-at-a-time over the fetched row ids.
                            for pr in &residual {
                                refine_selection(
                                    pr,
                                    table.column(pr.column()).values(),
                                    &mut matches,
                                );
                            }
                        }
                    }
                }
                matches.sort_unstable();
                Ok(matches)
            }
        }
    }

    /// Value of `(rel, col)` for one side of a join condition.
    #[inline]
    fn value(&self, query: &Query, rel: usize, col: usize, row: u32) -> i64 {
        self.db
            .table(query.relations[rel].table)
            .column(col)
            .get(row as usize)
    }

    fn check_extra_edges(
        &self,
        query: &Query,
        outer: &RowSet,
        outer_tuple: &[u32],
        inner_rel: usize,
        inner_row: u32,
        edges: &[JoinEdge],
    ) -> bool {
        edges.iter().skip(1).all(|e| {
            let lv = self.value(
                query,
                e.left,
                e.left_column,
                outer_tuple[outer.slot_of(e.left)],
            );
            let rv = self.value(query, inner_rel, e.right_column, inner_row);
            lv == rv
        })
    }

    /// Hoisted column slices for the non-key join conditions:
    /// `(outer slot, outer column, inner column)` per extra edge.
    fn extra_edge_columns(
        &self,
        query: &Query,
        outer: &RowSet,
        inner_rel: usize,
        edges: &[JoinEdge],
    ) -> EdgeCols<'a> {
        edges
            .iter()
            .skip(1)
            .map(|e| {
                (
                    outer.slot_of(e.left),
                    self.column_slice(query, e.left, e.left_column),
                    self.column_slice(query, inner_rel, e.right_column),
                )
            })
            .collect()
    }

    /// `outer` as the probe side of the chunked join kernels
    /// ([`crate::probe`]), keyed by `edges[0]`.
    fn probe_side<'o>(
        &self,
        query: &Query,
        outer: &'o RowSet,
        inner_rel: usize,
        edges: &[JoinEdge],
    ) -> crate::probe::Outer<'o>
    where
        'a: 'o,
    {
        let key = edges[0];
        crate::probe::Outer {
            data: &outer.data,
            stride: outer.stride(),
            key_slot: outer.slot_of(key.left),
            key_col: self.column_slice(query, key.left, key.left_column),
            extra: self.extra_edge_columns(query, outer, inner_rel, edges),
        }
    }

    fn hash_join<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep {
            edges,
            outer,
            inner_rel,
            inner,
            ..
        } = step;
        // Build on inner.
        meter.charge(inner.len() as f64 * p.hash_build)?;
        match self.mode {
            ExecMode::Scalar => self.hash_probe_scalar(query, step, meter, sink),
            ExecMode::Chunked => crate::probe::hash_join(
                &self.probe_side(query, outer, *inner_rel, edges),
                inner,
                self.column_slice(query, *inner_rel, edges[0].right_column),
                &p,
                meter,
                sink,
            ),
        }
    }

    /// Row-at-a-time reference build + probe.
    fn hash_probe_scalar<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep {
            edges,
            outer,
            inner_rel,
            inner,
            ..
        } = step;
        let inner_rel = *inner_rel;
        let key = edges[0];
        let mut table: foss_common::FxHashMap<i64, Vec<u32>> = foss_common::FxHashMap::default();
        for &row in inner {
            table
                .entry(self.value(query, inner_rel, key.right_column, row))
                .or_default()
                .push(row);
        }
        let mut emits = BatchCharge::new(p.output_tuple);
        let lslot = outer.slot_of(key.left);
        let n = outer.len();
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            meter.charge((end - start) as f64 * p.hash_probe)?;
            for i in start..end {
                let t = outer.tuple(i);
                let lv = self.value(query, key.left, key.left_column, t[lslot]);
                if let Some(cands) = table.get(&lv) {
                    for &row in cands {
                        if self.check_extra_edges(query, outer, t, inner_rel, row, edges) {
                            sink.push(t, row);
                            emits.emitted(meter)?;
                        }
                    }
                }
            }
            emits.flush(meter)?;
        }
        Ok(())
    }

    fn merge_join<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep {
            edges,
            outer,
            inner_rel,
            inner,
            ..
        } = step;
        let inner_rel = *inner_rel;
        let key = edges[0];
        meter.charge(self.cost.sort(outer.len() as f64) + self.cost.sort(inner.len() as f64))?;
        let stride = outer.stride();
        let lslot = outer.slot_of(key.left);
        // Sort outer tuple indexes and inner rows by (key value, position):
        // the positional tie-break keeps equal-key orders identical across
        // engines (unstable sorts would otherwise be free to differ).
        let mut oidx: Vec<usize> = (0..outer.len()).collect();
        let mut irows: Vec<u32> = inner.clone();
        let (okeys, ikeys): (Vec<i64>, Vec<i64>) = match self.mode {
            ExecMode::Scalar => {
                oidx.sort_unstable_by_key(|&i| {
                    (
                        self.value(query, key.left, key.left_column, outer.tuple(i)[lslot]),
                        i,
                    )
                });
                irows.sort_unstable_by_key(|&row| {
                    (self.value(query, inner_rel, key.right_column, row), row)
                });
                (
                    oidx.iter()
                        .map(|&i| {
                            self.value(query, key.left, key.left_column, outer.tuple(i)[lslot])
                        })
                        .collect(),
                    irows
                        .iter()
                        .map(|&row| self.value(query, inner_rel, key.right_column, row))
                        .collect(),
                )
            }
            ExecMode::Chunked => {
                // Gather each side's keys once, sort ids by (key, position),
                // then realign the gathered keys with the sorted order.
                let lcol = self.column_slice(query, key.left, key.left_column);
                let icol = self.column_slice(query, inner_rel, key.right_column);
                oidx.sort_unstable_by_key(|&i| (lcol[outer.data[i * stride + lslot] as usize], i));
                irows.sort_unstable_by_key(|&row| (icol[row as usize], row));
                (
                    oidx.iter()
                        .map(|&i| lcol[outer.data[i * stride + lslot] as usize])
                        .collect(),
                    irows.iter().map(|&row| icol[row as usize]).collect(),
                )
            }
        };

        meter.charge((outer.len() + inner.len()) as f64 * p.merge_step)?;
        let extra = match self.mode {
            ExecMode::Scalar => Vec::new(),
            ExecMode::Chunked => self.extra_edge_columns(query, outer, inner_rel, edges),
        };
        // Chunked, key edge only: every pair of an equal group matches.
        let whole_groups = self.mode == ExecMode::Chunked && extra.is_empty();
        let mut emits = BatchCharge::new(p.output_tuple);
        let (mut i, mut j) = (0usize, 0usize);
        while i < oidx.len() && j < irows.len() {
            let ov = okeys[i];
            let iv = ikeys[j];
            if ov < iv {
                i += 1;
            } else if ov > iv {
                j += 1;
            } else {
                // Equal group: emit the cartesian product of the group.
                let jstart = j;
                let mut jend = j;
                while jend < irows.len() && ikeys[jend] == ov {
                    jend += 1;
                }
                while i < oidx.len() && okeys[i] == ov {
                    let t = outer.tuple(oidx[i]);
                    i += 1;
                    if whole_groups {
                        sink.push_all_charged(t, &irows[jstart..jend], &mut emits, meter)?;
                        continue;
                    }
                    for &row in &irows[jstart..jend] {
                        let matched = match self.mode {
                            ExecMode::Scalar => {
                                self.check_extra_edges(query, outer, t, inner_rel, row, edges)
                            }
                            ExecMode::Chunked => extra
                                .iter()
                                .all(|&(slot, lc, rc)| lc[t[slot] as usize] == rc[row as usize]),
                        };
                        if matched {
                            sink.push(t, row);
                            emits.emitted(meter)?;
                        }
                    }
                }
                j = jend;
            }
        }
        emits.flush(meter)
    }

    fn nl_join<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep {
            edges,
            outer,
            inner_rel,
            inner,
            ..
        } = step;
        let inner_rel = *inner_rel;
        let stride = outer.stride();
        let n = outer.len();
        // Chunked engine: per-edge hoisted outer columns plus inner key
        // values gathered once, aligned with `inner`.
        type NlHoisted<'c> = (Vec<(usize, &'c [i64])>, Vec<Vec<i64>>);
        let hoisted: Option<NlHoisted<'_>> = match self.mode {
            ExecMode::Scalar => None,
            ExecMode::Chunked => {
                let lcols: Vec<(usize, &[i64])> = edges
                    .iter()
                    .map(|e| {
                        (
                            outer.slot_of(e.left),
                            self.column_slice(query, e.left, e.left_column),
                        )
                    })
                    .collect();
                let ivals: Vec<Vec<i64>> = edges
                    .iter()
                    .map(|e| {
                        let icol = self.column_slice(query, inner_rel, e.right_column);
                        inner.iter().map(|&row| icol[row as usize]).collect()
                    })
                    .collect();
                Some((lcols, ivals))
            }
        };
        let mut emits = BatchCharge::new(p.output_tuple);
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            // Charge a whole inner pass per chunk of outer rows so
            // catastrophic loops hit the budget after the first chunk.
            meter.charge((end - start) as f64 * inner.len() as f64 * p.nl_pair)?;
            match &hoisted {
                None => {
                    for i in start..end {
                        let t = outer.tuple(i);
                        'inner: for &row in inner {
                            for e in edges.iter() {
                                let lv = self.value(
                                    query,
                                    e.left,
                                    e.left_column,
                                    t[outer.slot_of(e.left)],
                                );
                                let rv = self.value(query, inner_rel, e.right_column, row);
                                if lv != rv {
                                    continue 'inner;
                                }
                            }
                            sink.push(t, row);
                            emits.emitted(meter)?;
                        }
                    }
                }
                Some((lcols, ivals)) => {
                    for i in start..end {
                        let t = &outer.data[i * stride..(i + 1) * stride];
                        match &ivals[..] {
                            // Single equi-join edge: stream the gathered
                            // inner keys (the common case).
                            [only] => {
                                let (slot, lcol) = lcols[0];
                                let lv = lcol[t[slot] as usize];
                                for (j, &rv) in only.iter().enumerate() {
                                    if rv == lv {
                                        sink.push(t, inner[j]);
                                        emits.emitted(meter)?;
                                    }
                                }
                            }
                            _ => {
                                let lvs: Vec<i64> = lcols
                                    .iter()
                                    .map(|&(slot, lc)| lc[t[slot] as usize])
                                    .collect();
                                for (j, &row) in inner.iter().enumerate() {
                                    if ivals.iter().zip(&lvs).all(|(iv, &lv)| iv[j] == lv) {
                                        sink.push(t, row);
                                        emits.emitted(meter)?;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            emits.flush(meter)?;
        }
        Ok(())
    }

    /// The inner side of an index nested loop keyed on `right_col` of
    /// `inner_rel`: its table, the hash index on that column, and the charge
    /// for one descent into it.
    pub(crate) fn index_nl_inner(
        &self,
        query: &Query,
        inner_rel: usize,
        right_col: usize,
    ) -> Result<(&'a Table, &'a HashIndex, f64)> {
        let table = self.db.table(query.relations[inner_rel].table);
        let index = table.hash_index(right_col).ok_or_else(|| {
            FossError::InvalidPlan(format!("index nested loop on unindexed column {right_col}"))
        })?;
        let descent = self.cost.index_descent(table.row_count() as f64);
        Ok((table, index, descent))
    }

    fn index_nl_join<S: Sink>(
        &self,
        query: &Query,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep {
            edges,
            outer,
            inner_rel,
            ..
        } = step;
        let inner_rel = *inner_rel;
        let key = *edges.first().ok_or_else(|| {
            FossError::InvalidPlan("index nested loop requires a join edge".into())
        })?;
        let (table, index, descent) = self.index_nl_inner(query, inner_rel, key.right_column)?;
        let preds = &query.relations[inner_rel].predicates;
        match self.mode {
            ExecMode::Chunked => crate::probe::index_nl_join(
                &self.probe_side(query, outer, inner_rel, edges),
                table,
                index,
                preds,
                descent,
                &p,
                meter,
                sink,
            ),
            ExecMode::Scalar => {
                let lslot = outer.slot_of(key.left);
                let n = outer.len();
                let mut fetches =
                    BatchCharge::new(p.index_fetch + p.pred_eval * preds.len() as f64);
                let mut emits = BatchCharge::new(p.output_tuple);
                for start in (0..n).step_by(CHUNK_SIZE) {
                    let end = (start + CHUNK_SIZE).min(n);
                    meter.charge((end - start) as f64 * descent)?;
                    for i in start..end {
                        let t = outer.tuple(i);
                        let lv = self.value(query, key.left, key.left_column, t[lslot]);
                        let fetched = index.lookup(lv);
                        fetches.add(fetched.len(), meter)?;
                        'fetch: for &row in fetched {
                            for pr in preds {
                                if !pr.matches(table.column(pr.column()).get(row as usize)) {
                                    continue 'fetch;
                                }
                            }
                            if !self.check_extra_edges(query, outer, t, inner_rel, row, edges) {
                                continue;
                            }
                            sink.push(t, row);
                            emits.emitted(meter)?;
                        }
                    }
                    fetches.flush(meter)?;
                    emits.flush(meter)?;
                }
                Ok(())
            }
        }
    }

    fn cross_join<S: Sink>(
        &self,
        step: &JoinStep<'_>,
        meter: &mut WorkMeter,
        sink: &mut S,
    ) -> Result<()> {
        let p = self.cost.params;
        let JoinStep { outer, inner, .. } = step;
        let n = outer.len();
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            let pairs = (end - start) as f64 * inner.len() as f64;
            // A cross join's output size is known up front, so the whole
            // chunk is charged *before* emitting anything: a catastrophic
            // product aborts without allocating its tuples.
            meter.charge(pairs * p.nl_pair)?;
            meter.charge(pairs * p.output_tuple)?;
            for i in start..end {
                sink.push_all(outer.tuple(i), inner);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_common::QueryId;
    use foss_optimizer::{CardinalityEstimator, Icp, TraditionalOptimizer, ALL_JOIN_METHODS};
    use foss_query::QueryBuilder;
    use foss_storage::{Column, Table};
    use std::sync::Arc;

    /// Two tables with a known join result for correctness checks:
    /// a has ids 0..10, b has 30 rows with fk = id % 10 → join = 30 rows.
    fn setup() -> (Database, TraditionalOptimizer, Query) {
        setup_sized(10, 30)
    }

    /// Same shape at arbitrary sizes (large sizes span several chunks).
    fn setup_sized(a_rows: i64, b_rows: i64) -> (Database, TraditionalOptimizer, Query) {
        let mut schema = Schema::new();
        schema
            .add_table(TableDef {
                name: "a".into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("v")],
            })
            .unwrap();
        schema
            .add_table(TableDef {
                name: "b".into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("a_id")],
            })
            .unwrap();
        let schema = Arc::new(schema);
        let a = Table::new(
            "a",
            vec![
                ("id".into(), Column::new((0..a_rows).collect())),
                (
                    "v".into(),
                    Column::new((0..a_rows).map(|i| i % 3).collect()),
                ),
            ],
        )
        .unwrap();
        let b = Table::new(
            "b",
            vec![
                ("id".into(), Column::new((0..b_rows).collect())),
                (
                    "a_id".into(),
                    Column::new((0..b_rows).map(|i| i % a_rows).collect()),
                ),
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![a, b], 8).unwrap();
        let opt = TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(db.stats_vec()),
            CostModel::default(),
        );
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        qb.join(ra, 0, rb, 1);
        let q = qb.build(&schema).unwrap();
        (db, opt, q)
    }

    #[test]
    fn optimized_plan_gives_correct_count() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let out = exec.execute(&q, &plan, None).unwrap();
        assert_eq!(out.rows, 30);
        assert!(out.latency > 0.0);
    }

    #[test]
    fn default_mode_is_chunked() {
        let (db, opt, _) = setup();
        let exec = Executor::new(&db, *opt.cost_model());
        assert_eq!(exec.mode(), ExecMode::Chunked);
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        assert_eq!(scalar.mode(), ExecMode::Scalar);
    }

    #[test]
    fn all_join_methods_agree_on_result_count() {
        let (db, opt, q) = setup();
        let exec = Executor::new(&db, *opt.cost_model());
        for order in [vec![0usize, 1], vec![1, 0]] {
            for m in ALL_JOIN_METHODS {
                let icp = Icp::new(order.clone(), vec![m]).unwrap();
                let plan = opt.optimize_with_hint(&q, &icp).unwrap();
                let out = exec.execute(&q, &plan, None).unwrap();
                assert_eq!(out.rows, 30, "order={order:?} method={m}");
            }
        }
    }

    /// Every (order, method) plan variant produces identical outcomes and
    /// identical result tuples (same rows, same order) in both engines.
    #[test]
    fn chunked_matches_scalar_on_all_plan_variants() {
        // Sizes that exceed CHUNK_SIZE so chunk boundaries are exercised.
        let (db, opt, q) = setup_sized(700, 3000);
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        for order in [vec![0usize, 1], vec![1, 0]] {
            for m in ALL_JOIN_METHODS {
                let icp = Icp::new(order.clone(), vec![m]).unwrap();
                let plan = opt.optimize_with_hint(&q, &icp).unwrap();
                let (oc, rc) = chunked.execute_rows(&q, &plan, None).unwrap();
                let (os, rs) = scalar.execute_rows(&q, &plan, None).unwrap();
                assert_eq!(oc, os, "outcome diverged: order={order:?} method={m}");
                assert_eq!(rc, rs, "tuples diverged: order={order:?} method={m}");
                assert_eq!(oc.rows, 3000);
            }
        }
    }

    /// Timeouts report identical spent work in both engines.
    #[test]
    fn chunked_matches_scalar_on_timeout() {
        let (db, opt, q) = setup_sized(700, 3000);
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let plan = opt.optimize(&q).unwrap();
        let full = chunked.execute(&q, &plan, None).unwrap();
        let ec = chunked
            .execute(&q, &plan, Some(full.latency / 3.0))
            .unwrap_err();
        let es = scalar
            .execute(&q, &plan, Some(full.latency / 3.0))
            .unwrap_err();
        match (ec, es) {
            (
                FossError::Timeout {
                    spent: sc,
                    budget: bc,
                },
                FossError::Timeout {
                    spent: ss,
                    budget: bs,
                },
            ) => {
                assert_eq!(sc, ss);
                assert_eq!(bc, bs);
            }
            other => panic!("expected twin timeouts, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// `add_each(n)` is `n × emitted()`: the same charges in the same
        /// order from any pending count — so the same latency bits, the same
        /// pending remainder, and under a budget the same aborting charge.
        #[test]
        fn add_each_charges_exactly_like_repeated_emitted(
            pending in 0usize..CHUNK_SIZE,
            n in 0usize..5 * CHUNK_SIZE,
            unit_milli in 1u32..4000,
            budget_pct in 0u32..140,
        ) {
            let unit = f64::from(unit_milli) / 1000.0;
            let total = (pending + n) as f64 * unit;
            for budget in [None, Some(total * f64::from(budget_pct) / 100.0)] {
                let run = |bulk: bool| {
                    let mut meter = WorkMeter::new(budget);
                    let mut charge = BatchCharge::new(unit);
                    charge.pending = pending;
                    let result = if bulk {
                        charge.add_each(n, &mut meter)
                    } else {
                        (0..n).try_for_each(|_| charge.emitted(&mut meter))
                    }
                    .and_then(|()| charge.flush(&mut meter));
                    (format!("{result:?}"), meter.spent.to_bits(), charge.pending)
                };
                proptest::prop_assert_eq!(run(true), run(false));
            }
        }
    }

    /// A cross join at the root (no connected query plans one, so the
    /// workload suites cannot reach it): count mode takes each outer tuple's
    /// whole inner run at once and still agrees with the materialising paths
    /// on rows, latency bits and abort points.
    #[test]
    fn count_mode_matches_materialised_cross_join() {
        let (db, opt, q) = setup_sized(50, 3000);
        let scan = |relation| PlanNode::Scan {
            relation,
            access: AccessPath::SeqScan,
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let plan = PhysicalPlan {
            root: PlanNode::Join {
                method: JoinMethod::Hash,
                left: Box::new(scan(1)),
                right: Box::new(scan(0)),
                edges: Vec::new(),
                index_nl: false,
                est_rows: 0.0,
                est_cost: 0.0,
            },
        };
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let full = chunked.execute(&q, &plan, None).unwrap();
        assert_eq!(full.rows, 150_000);
        for budget in [None, Some(full.latency * 0.3), Some(full.latency * 0.9)] {
            let count = format!("{:?}", chunked.execute(&q, &plan, budget));
            let rows = chunked.execute_rows(&q, &plan, budget).map(|(out, _)| out);
            assert_eq!(count, format!("{rows:?}"));
            assert_eq!(count, format!("{:?}", scalar.execute(&q, &plan, budget)));
        }
    }

    #[test]
    fn predicates_filter_results() {
        let (db, opt, q0) = setup();
        let schema = db.schema().clone();
        let mut qb = QueryBuilder::new(QueryId::new(1), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        qb.join(ra, 0, rb, 1);
        qb.predicate(
            ra,
            Predicate::Eq {
                column: 1,
                value: 0,
            },
        );
        let q = qb.build(&schema).unwrap();
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let out = exec.execute(&q, &plan, None).unwrap();
        // a.v = 0 keeps ids {0,3,6,9} → 4 ids × 3 b-rows each.
        assert_eq!(out.rows, 12);
        drop(q0);
    }

    #[test]
    fn multi_predicate_scan_matches_scalar_across_chunks() {
        let (db, opt, _) = setup_sized(5000, 16);
        let schema = db.schema().clone();
        let mut qb = QueryBuilder::new(QueryId::new(3), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        qb.predicate(
            ra,
            Predicate::Range {
                column: 0,
                lo: 100,
                hi: 4200,
            },
        );
        qb.predicate(
            ra,
            Predicate::Eq {
                column: 1,
                value: 2,
            },
        );
        let q = qb.build(&schema).unwrap();
        // Force a sequential scan so the chunked filter path runs.
        let plan = PhysicalPlan {
            root: PlanNode::Scan {
                relation: 0,
                access: AccessPath::SeqScan,
                est_rows: 0.0,
                est_cost: 0.0,
            },
        };
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let (oc, rc) = chunked.execute_rows(&q, &plan, None).unwrap();
        let (os, rs) = scalar.execute_rows(&q, &plan, None).unwrap();
        assert_eq!(oc, os);
        assert_eq!(rc, rs);
        // ids 100..=4200 with id % 3 == 2 → 1367 rows.
        assert_eq!(oc.rows, (100..=4200).filter(|i| i % 3 == 2).count() as u64);
    }

    #[test]
    fn timeout_aborts_execution() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let full = exec.execute(&q, &plan, None).unwrap();
        let err = exec
            .execute(&q, &plan, Some(full.latency / 10.0))
            .unwrap_err();
        match err {
            FossError::Timeout { spent, budget } => {
                assert!(spent >= budget);
            }
            other => panic!("expected timeout, got {other}"),
        }
    }

    #[test]
    fn bad_plans_cost_more_work() {
        let (db, opt, q) = setup();
        let exec = Executor::new(&db, *opt.cost_model());
        let good = opt.optimize(&q).unwrap();
        // Force a naive nested loop with the big table outer: strictly worse.
        let bad_icp = Icp::new(vec![1, 0], vec![JoinMethod::NestLoop]).unwrap();
        let bad = opt.optimize_with_hint(&q, &bad_icp).unwrap();
        let lg = exec.execute(&q, &good, None).unwrap().latency;
        let lb = exec.execute(&q, &bad, None).unwrap().latency;
        assert!(lb > lg, "bad NL ({lb}) should exceed optimized plan ({lg})");
    }

    #[test]
    fn execution_is_deterministic() {
        let (db, opt, q) = setup();
        let plan = opt.optimize(&q).unwrap();
        for mode in [ExecMode::Chunked, ExecMode::Scalar] {
            let exec = Executor::with_mode(&db, *opt.cost_model(), mode);
            let a = exec.execute(&q, &plan, None).unwrap();
            let b = exec.execute(&q, &plan, None).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn single_relation_scan_counts_rows() {
        let (db, opt, _) = setup();
        let schema = db.schema().clone();
        let mut qb = QueryBuilder::new(QueryId::new(2), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        qb.predicate(
            ra,
            Predicate::Range {
                column: 0,
                lo: 2,
                hi: 5,
            },
        );
        let q = qb.build(&schema).unwrap();
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        assert_eq!(exec.execute(&q, &plan, None).unwrap().rows, 4);
    }

    /// The setup() join with COUNT/SUM/MIN/MAX over `b.id`, optionally
    /// grouped by `a.v`.
    fn agg_query(db: &Database, qid: usize, group: bool) -> Query {
        use foss_query::{AggFunc, ColRef};
        let schema = db.schema().clone();
        let mut qb = QueryBuilder::new(QueryId::new(qid), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        qb.join(ra, 0, rb, 1);
        if group {
            qb.group_by(ra, 1);
        }
        let b_id = ColRef { rel: rb, column: 0 };
        qb.aggregate(AggFunc::Count)
            .aggregate(AggFunc::Sum(b_id))
            .aggregate(AggFunc::Min(b_id))
            .aggregate(AggFunc::Max(b_id));
        qb.build(&schema).unwrap()
    }

    #[test]
    fn group_by_aggregates_match_hand_computed_values() {
        let (db, opt, _) = setup();
        let q = agg_query(&db, 11, true);
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let (out, agg) = exec.execute_agg(&q, &plan, None).unwrap();
        // a.v = id % 3 groups the 10 a-rows into {0,3,6,9}, {1,4,7},
        // {2,5,8}; each a-row matches b ids {k, k+10, k+20}.
        let expect = [(0, 12, 174, 0, 29), (1, 9, 126, 1, 27), (2, 9, 135, 2, 28)];
        assert_eq!(out.rows, 3);
        assert_eq!(agg.rows.len(), 3);
        for (row, (key, count, sum, min, max)) in agg.rows.iter().zip(expect) {
            assert_eq!(row.group, Some(key));
            assert_eq!(
                row.values,
                vec![Some(count), Some(sum), Some(min), Some(max)]
            );
        }
    }

    #[test]
    fn aggregation_is_engine_independent() {
        let (db, opt, _) = setup_sized(3000, 9000);
        let q = agg_query(&db, 12, true);
        let plan = opt.optimize(&q).unwrap();
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let (oc, rc) = chunked.execute_agg(&q, &plan, None).unwrap();
        let (os, rs) = scalar.execute_agg(&q, &plan, None).unwrap();
        assert_eq!(rc, rs);
        assert_eq!(oc.latency.to_bits(), os.latency.to_bits());
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let (db, opt, _) = setup();
        let schema = db.schema().clone();
        let mut qb = QueryBuilder::new(QueryId::new(13), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        let rb = qb.relation(schema.table_id("b").unwrap(), "b");
        qb.join(ra, 0, rb, 1);
        qb.predicate(
            ra,
            Predicate::Range {
                column: 0,
                lo: 100,
                hi: 200,
            },
        );
        use foss_query::{AggFunc, ColRef};
        let b_id = ColRef { rel: rb, column: 0 };
        qb.aggregate(AggFunc::Count)
            .aggregate(AggFunc::Sum(b_id))
            .aggregate(AggFunc::Min(b_id))
            .aggregate(AggFunc::Max(b_id));
        let q = qb.build(&schema).unwrap();
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let (out, agg) = exec.execute_agg(&q, &plan, None).unwrap();
        assert_eq!(out.rows, 1);
        assert_eq!(agg.rows.len(), 1);
        assert_eq!(agg.rows[0].group, None);
        // COUNT and SUM fold to zero; MIN/MAX are undefined on no rows.
        assert_eq!(agg.rows[0].values, vec![Some(0), Some(0), None, None]);
    }

    #[test]
    fn execute_rows_threads_the_projection_list() {
        use foss_query::ColRef;
        let (db, opt, _) = setup();
        let q = agg_query(&db, 14, true);
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let (_, rows) = exec.execute_rows(&q, &plan, None).unwrap();
        // Group key first, then agg inputs, deduplicated in first-use order.
        assert_eq!(
            rows.proj,
            vec![ColRef { rel: 0, column: 1 }, ColRef { rel: 1, column: 0 }]
        );
        // A plain COUNT(*) query projects nothing.
        let (db2, opt2, q2) = setup();
        let plan2 = opt2.optimize(&q2).unwrap();
        let exec2 = Executor::new(&db2, *opt2.cost_model());
        let (_, rows2) = exec2.execute_rows(&q2, &plan2, None).unwrap();
        assert!(rows2.proj.is_empty());
    }

    #[test]
    fn aggregation_charges_count_toward_the_budget() {
        let (db, opt, _) = setup();
        let q = agg_query(&db, 15, true);
        let plan = opt.optimize(&q).unwrap();
        let exec = Executor::new(&db, *opt.cost_model());
        let (out, _) = exec.execute_agg(&q, &plan, None).unwrap();
        let bare = exec.execute(&q, &plan, None).unwrap();
        assert!(out.latency > bare.latency);
        // A budget between the two must time out inside the aggregation.
        let mid = (bare.latency + out.latency) / 2.0;
        let err = exec.execute_agg(&q, &plan, Some(mid)).unwrap_err();
        assert!(matches!(err, FossError::Timeout { .. }));
    }
}
