//! The physical operator interpreter.
//!
//! Two interchangeable engines live behind [`ExecMode`]:
//!
//! * **Chunked** (the default) — a push pipeline of [`CHUNK_SIZE`]-tuple
//!   chunks. Scans evaluate predicates column-at-a-time over contiguous
//!   slices and refine a selection vector. The leftmost scan feeds its row
//!   ids, a chunk at a time, into the bottom join; every join runs its kernel
//!   (`crate::probe`) over one chunk and writes each match, narrowed to the
//!   slots a later join reads, into the next join's input, which runs as soon
//!   as a full chunk has gathered. A join sets itself up — scans its inner
//!   side, and a hash join builds its table — when its first input arrives;
//!   a merge join is the one pipeline breaker and gathers its whole outer
//!   input before it runs. [`Executor::execute`] runs in *count mode* — the
//!   root join counts its matches — so it holds the joins' inner sides, at
//!   most a chunk per join and each stage's charge log (see below), and
//!   never a whole intermediate.
//!   [`Executor::execute_rows`] is the same pipeline with every slot kept and
//!   the root's matches stored.
//! * **Scalar** — the reference row-at-a-time interpreter, kept for
//!   differential testing (see the chunked-vs-scalar property tests) and
//!   reachable only through [`Executor::with_mode`]. It runs the joins one
//!   after another and materialises every intermediate in full.
//!
//! Every query is a `COUNT(*)` join block, so a result is its tuple count;
//! [`Executor::execute_rows`] hands back the tuples themselves only for
//! comparison.
//!
//! # Metering
//!
//! Both engines share one *chunk-granular metering discipline*: work-unit
//! charges are accrued per chunk, in the same order, with the same floating
//! point operations. Latencies are therefore **bit-identical** across modes
//! and between count mode and materialising execution, and results match
//! row-for-row in the same order — switching engines can never change
//! trained-model behaviour.
//!
//! The scalar engine charges one join's work after the previous join's, and
//! that order defines a plan's latency (an IEEE sum depends on its order).
//! The pipeline interleaves the joins' work instead. Each of its *stages* —
//! one join with its inner scan — re-chunks its input at the 1024-tuple
//! boundaries the materialised intermediate had, so its charges are exactly
//! the scalar engine's for that join; only their order differs. The lowest
//! stage still running charges the `WorkMeter` directly (at first the
//! bottom join, right after the leftmost scan's charge). Every stage above
//! it logs its charges in a `StageLog`, one `f64` per charge, so a log
//! grows with its stage's work (8 bytes per chunk-sized charge). Once the
//! stages below a stage are done, its log is replayed into the meter and it
//! charges the meter directly from then on. The meter thus sees the scalar
//! engine's charge sequence, and a crossing of the budget there is exact.
//!
//! Under a budget a logging stage also stops early: once the sum of every
//! charge logged through it (the stages below, then its own) exceeds the
//! budget, the replay is certain to cross the budget by the end of the
//! stage's log, so neither it nor any stage above it does more work. That
//! sum is a lower bound on where the replay stands at the same point: every
//! charge is non-negative and IEEE addition is monotone, so a sum over a
//! subsequence of the charges, in order, never exceeds the sum over all of
//! them, and `StageLog` discounts the rounding its own regrouping of the
//! terms may add. The stages below a stopped one run on until their input
//! is exhausted or the meter crosses, and the replay then finds the exact
//! charge that crosses the budget, so `Timeout { spent, budget }` is the
//! scalar engine's too. A stage that stopped early has done work the scalar
//! engine never reaches: over the `serve_skew` pool's timeouts the
//! pipeline logs at most 1.6× the scalar engine's `spent` (median 1.0×).

use std::cell::Cell;

use foss_common::{FossError, FxHashMap, Result};
use foss_optimizer::{AccessPath, CostModel, JoinMethod, PhysicalPlan, PlanNode};
use foss_query::{JoinEdge, Predicate, Query};
use foss_storage::{HashIndex, Table};

use crate::database::Database;
use crate::probe::{self, Count, Kernel, Layout, Liveness, Outer, Rows, Sink};

/// Rows per execution chunk (tuples processed between two meter charges).
pub const CHUNK_SIZE: usize = 1024;

/// Which operator implementations the interpreter dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Pipelined chunk-at-a-time operators over column chunks with selection
    /// vectors.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    /// Relation index corresponding to each tuple slot.
    pub rels: Vec<usize>,
    /// Flattened tuples; stride = `rels.len()`.
    pub data: Vec<u32>,
}

impl RowSet {
    fn stride(&self) -> usize {
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
}

/// The tuple slot of relation `rel` in a layout of `rels`.
fn slot_of(rels: &[usize], rel: usize) -> Result<usize> {
    rels.iter().position(|&r| r == rel).ok_or_else(|| {
        FossError::InvalidPlan(format!(
            "join edge references relation {rel}, which is not joined below it"
        ))
    })
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

/// One join of a left-deep plan, as the plan states it.
#[derive(Clone, Copy)]
struct JoinSpec<'p> {
    method: JoinMethod,
    index_nl: bool,
    edges: &'p [JoinEdge],
    /// The inner side: a scan of this relation through this access path.
    inner_rel: usize,
    access: &'p AccessPath,
}

impl JoinSpec<'_> {
    /// Whether the join needs its whole outer input at once: a keyed merge
    /// join, the pipeline breaker.
    fn breaks(&self) -> bool {
        !self.index_nl && self.method == JoinMethod::Merge && !self.edges.is_empty()
    }
}

/// `plan`'s leftmost scan (relation, access path) and its joins, bottom-up.
/// Fails on a join whose inner side is not a scan: plans are left-deep.
fn spine(plan: &PhysicalPlan) -> Result<((usize, &AccessPath), Vec<JoinSpec<'_>>)> {
    let mut joins = Vec::new();
    let mut node = &plan.root;
    loop {
        match node {
            PlanNode::Scan {
                relation, access, ..
            } => {
                joins.reverse();
                return Ok(((*relation, access), joins));
            }
            PlanNode::Join {
                method,
                left,
                right,
                edges,
                index_nl,
                ..
            } => {
                let PlanNode::Scan {
                    relation, access, ..
                } = &**right
                else {
                    return Err(FossError::InvalidPlan(
                        "plans are left-deep: a join's inner side must be a scan".into(),
                    ));
                };
                joins.push(JoinSpec {
                    method: *method,
                    index_nl: *index_nl,
                    edges,
                    inner_rel: *relation,
                    access,
                });
                node = left;
            }
        }
    }
}

/// One join of the scalar engine, ready to run: its conditions and its
/// executed inputs.
struct JoinStep<'s> {
    edges: &'s [JoinEdge],
    /// The outer (probe) side: every tuple of the join below, full-width.
    outer: &'s RowSet,
    /// The inner relation — always a base-table scan (plans are left-deep).
    inner_rel: usize,
    /// The inner scan's row ids; empty for an index nested loop, which
    /// probes the relation's index instead of scanning it.
    inner: Vec<u32>,
}

/// What work is charged to: the run's [`WorkMeter`], or a pipeline stage's
/// [`StageLog`].
pub(crate) trait Meter {
    /// Add `amount` work units; fails once the budget is exceeded.
    fn charge(&mut self, amount: f64) -> Result<()>;
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
}

impl Meter for WorkMeter {
    fn charge(&mut self, amount: f64) -> Result<()> {
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

/// One pipeline stage's charges and the rule that stops the stage under a
/// budget. The lowest stage still running charges *directly*: it continues
/// the meter's own sum, in the meter's order, so its verdict is exact. Every
/// stage above it logs its charges in order for the replay. The stage's
/// kernel charges it while its forwarding sink reads its running sum for the
/// stage above, so both hold it shared and its fields are cells.
struct StageLog {
    /// The logged charges not yet replayed, except zeros: once the leftmost
    /// scan has charged the meter, adding zero changes neither its sum nor
    /// its verdict.
    charges: Cell<Vec<f64>>,
    /// Whether the stage charges directly (see [`StageLog::promote`]).
    direct: Cell<bool>,
    /// Sum and count of every charge logged below this stage, as of the
    /// call the stage is running.
    below: Cell<(f64, usize)>,
    /// Sum and count of this stage's own charges; when direct, the meter's
    /// running sum.
    own: Cell<(f64, usize)>,
    budget: f64,
    stopped: Cell<bool>,
}

impl StageLog {
    fn new(budget: f64) -> Self {
        Self {
            charges: Cell::default(),
            direct: Cell::new(false),
            below: Cell::new((0.0, 0)),
            own: Cell::new((0.0, 0)),
            budget,
            stopped: Cell::new(false),
        }
    }

    /// Sum and count of every charge logged through this stage.
    fn through(&self) -> (f64, usize) {
        let ((below, m), (own, n)) = (self.below.get(), self.own.get());
        (below + own, m + n + 1)
    }

    /// Make this the stage that charges the meter directly, once every stage
    /// below it is done: its log so far is the next stretch of the replay,
    /// so replay it into `meter` (which fails at the exact crossing), then
    /// go on from the meter's sum.
    fn promote(&self, meter: &mut WorkMeter) -> Result<()> {
        for amount in self.charges.take() {
            meter.charge(amount)?;
        }
        self.direct.set(true);
        self.below.set((0.0, 0));
        self.own.set((meter.spent, 0));
        Ok(())
    }
}

impl Meter for &StageLog {
    /// Charge `amount`. A direct stage adds it to the meter's sum and stops
    /// exactly where the meter would. A logging stage logs it, and stops once
    /// the charges logged through it exceed the budget for certain. That sum
    /// groups its terms stage by stage rather than in replay order; each of
    /// its `n` additions (and each of the replay's) rounds by at most a
    /// factor `1 ± ε/2` on non-negative terms, so discounting it by `2n·ε`
    /// leaves a lower bound on the replay.
    fn charge(&mut self, amount: f64) -> Result<()> {
        let (own, n) = self.own.get();
        let (sum, bound) = if self.direct.get() {
            let spent = own + amount;
            self.own.set((spent, n));
            (spent, spent)
        } else {
            if amount != 0.0 {
                let mut charges = self.charges.take();
                charges.push(amount);
                self.charges.set(charges);
            }
            self.own.set((own + amount, n + 1));
            let (sum, n) = self.through();
            (sum, sum * (1.0 - 2.0 * n as f64 * f64::EPSILON))
        };
        if bound > self.budget {
            self.stopped.set(true);
            return Err(FossError::Timeout {
                spent: sum as u64,
                budget: self.budget as u64,
            });
        }
        Ok(())
    }
}

/// What a stage needs to set itself up: the executor and the query.
struct RunCtx<'r, 'a> {
    exec: &'r Executor<'a>,
    query: &'r Query,
}

/// One join of the running pipeline.
struct Stage<'p, 'a> {
    join: JoinSpec<'p>,
    /// The relations of its outer tuples' slots.
    rels: Vec<usize>,
    /// Set up when the stage's first input arrives; `None` before, or if
    /// set-up stopped or failed the stage.
    kernel: Option<Kernel<'a>>,
    /// Why set-up failed, other than by the stop rule.
    failed: Option<FossError>,
    log: StageLog,
    /// Slots per outer tuple.
    stride: usize,
    /// The slots of each match this stage hands on.
    layout: Layout,
    /// Matches not yet handed on to the stage above.
    out: Vec<u32>,
    /// `out`'s length at which the stage above runs on it: one chunk of its
    /// input, or never before the input is exhausted (a merge join).
    hand_on: usize,
}

impl<'a> Stage<'_, 'a> {
    /// Set the stage up if it is not yet: scan its inner side and build what
    /// its kernel probes, charging its log. A failure other than a stop
    /// ends the stage too, and is kept for the run to report.
    fn set_up(&mut self, ctx: &RunCtx<'_, 'a>) {
        if self.kernel.is_some() || self.log.stopped.get() {
            return;
        }
        match ctx.exec.stage(ctx.query, &self.rels, &self.join, &self.log) {
            Ok(kernel) => self.kernel = Some(kernel),
            Err(e) => {
                if !self.log.stopped.get() {
                    self.log.stopped.set(true);
                    self.failed = Some(e);
                }
            }
        }
    }
}

/// What the root stage's matches become.
enum Output {
    Count(Count),
    Rows(Vec<u32>),
}

/// Run the outer tuples `chunk` through `stages[0]`, setting it up first if
/// this is its first input; its matches flow on into the stages above it.
/// `below` is the sum and count of every charge logged below the stage. A
/// kernel fails only through its stage's stop rule, so an error ends the
/// stage — its log records the stop — and the stages above it get no more
/// input.
fn feed<'a>(
    stages: &mut [Stage<'_, 'a>],
    root: &mut Output,
    ctx: &RunCtx<'_, 'a>,
    below: (f64, usize),
    chunk: &[u32],
) {
    let Some((stage, next)) = stages.split_first_mut() else {
        return;
    };
    if stage.log.stopped.get() {
        return;
    }
    stage.log.below.set(below);
    stage.set_up(ctx);
    let Stage {
        kernel: Some(kernel),
        log,
        stride,
        layout,
        out,
        hand_on,
        ..
    } = stage
    else {
        return;
    };
    let (log, stride, cost) = (&*log, *stride, &ctx.exec.cost);
    let _stopped = match (next.is_empty(), root) {
        (false, root) => {
            let mut sink = Forward {
                log,
                layout,
                out,
                hand_on: *hand_on,
                next,
                root,
                ctx,
            };
            kernel.run(chunk, stride, cost, &mut &*log, &mut sink)
        }
        (true, Output::Count(count)) => kernel.run(chunk, stride, cost, &mut &*log, count),
        (true, Output::Rows(rows)) => {
            let mut sink = Rows { layout, out: rows };
            kernel.run(chunk, stride, cost, &mut &*log, &mut sink)
        }
    };
}

/// The sink of every stage below the root: it narrows each match into the
/// stage's output buffer and runs the stages above on every full chunk.
struct Forward<'s, 'p, 'a> {
    log: &'s StageLog,
    layout: &'s Layout,
    out: &'s mut Vec<u32>,
    hand_on: usize,
    next: &'s mut [Stage<'p, 'a>],
    root: &'s mut Output,
    ctx: &'s RunCtx<'s, 'a>,
}

impl Sink for Forward<'_, '_, '_> {
    #[inline]
    fn push(&mut self, t: &[u32], row: u32) {
        self.layout.write(t, row, self.out);
        if self.out.len() == self.hand_on {
            self.hand_on();
        }
    }
}

impl Forward<'_, '_, '_> {
    /// Run the stages above on the full chunk in `out`. Out of line: it
    /// closes the recursion `push` → [`feed`] → kernel → `push`, which would
    /// otherwise keep `push` from being inlined into the kernels' loops.
    #[inline(never)]
    fn hand_on(&mut self) {
        feed(self.next, self.root, self.ctx, self.log.through(), self.out);
        self.out.clear();
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
fn filter_chunk(pred: &Predicate, col: &[i64], start: usize, end: usize, sel: &mut Vec<u32>) {
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
    pub(crate) fn add<M: Meter + ?Sized>(&mut self, n: usize, meter: &mut M) -> Result<()> {
        self.pending += n;
        if self.pending >= CHUNK_SIZE {
            let pend = std::mem::take(&mut self.pending);
            meter.charge(pend as f64 * self.unit)?;
        }
        Ok(())
    }

    /// Record one unit (an emitted tuple).
    #[inline]
    pub(crate) fn emitted<M: Meter + ?Sized>(&mut self, meter: &mut M) -> Result<()> {
        self.add(1, meter)
    }

    /// Record `n` units exactly as `n` calls of [`BatchCharge::emitted`]
    /// would — a full `CHUNK_SIZE × unit` charge each time the pending count
    /// reaches [`CHUNK_SIZE`] — in O(n / CHUNK_SIZE).
    #[inline]
    pub(crate) fn add_each<M: Meter + ?Sized>(
        &mut self,
        mut n: usize,
        meter: &mut M,
    ) -> Result<()> {
        while self.pending + n >= CHUNK_SIZE {
            n -= CHUNK_SIZE - self.pending;
            self.pending = 0;
            meter.charge(CHUNK_SIZE as f64 * self.unit)?;
        }
        self.pending += n;
        Ok(())
    }

    /// Charge whatever remains below one chunk.
    pub(crate) fn flush<M: Meter + ?Sized>(&mut self, meter: &mut M) -> Result<()> {
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
    /// matches instead of storing them, and every join below it hands on
    /// only the slots a later join's conditions read. Charges, row count and
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
    /// result tuples, one slot per joined relation — what the differential
    /// tests compare across [`ExecMode`]s.
    pub fn execute_rows(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> Result<(ExecOutcome, RowSet)> {
        let mut meter = WorkMeter::new(budget);
        let rows = match self.mode {
            ExecMode::Chunked => self.run(query, plan, true, &mut meter)?.1,
            ExecMode::Scalar => Some(self.run_scalar(query, plan, &mut meter)?),
        }
        .unwrap_or_default();
        let outcome = ExecOutcome {
            latency: meter.spent,
            rows: rows.len() as u64,
        };
        Ok((outcome, rows))
    }

    /// Run `plan` as a pipeline (see the module docs) and return the
    /// result's row count, with the full-width tuples if `want_rows`.
    /// Without them the root join only counts and the joins below it hand
    /// on just the slots a join above reads.
    fn run(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        want_rows: bool,
        meter: &mut WorkMeter,
    ) -> Result<(u64, Option<RowSet>)> {
        let ((first, access), joins) = spine(plan)?;
        let ids = self.exec_scan(query, first, access, meter)?;
        let mut rels = vec![first];
        if joins.is_empty() {
            return Ok((
                ids.len() as u64,
                want_rows.then_some(RowSet { rels, data: ids }),
            ));
        }
        let relations = query.relation_count();
        let live = if want_rows {
            Liveness::all(relations)
        } else {
            Liveness::of(relations, joins.iter().map(|j| j.edges))
        };

        // Lay the stages out bottom-up; each sets itself up (and charges for
        // it) only when its first input arrives.
        let mut stages: Vec<Stage<'_, 'a>> = Vec::with_capacity(joins.len());
        for (pos, join) in joins.into_iter().enumerate() {
            if let Some(below) = stages.last_mut() {
                below.hand_on = if join.breaks() {
                    usize::MAX
                } else {
                    CHUNK_SIZE * rels.len()
                };
            }
            let layout = Layout::narrow(&rels, join.inner_rel, &live, pos);
            let stage_rels = rels.clone();
            layout.apply(&mut rels, join.inner_rel);
            stages.push(Stage {
                join,
                stride: stage_rels.len(),
                rels: stage_rels,
                kernel: None,
                failed: None,
                log: StageLog::new(meter.budget),
                layout,
                out: Vec::new(),
                hand_on: usize::MAX,
            });
        }

        // Stream: the leftmost scan's ids into the bottom join, then,
        // bottom-up, what each stage has not handed on yet into the next,
        // once the stages below it are done. The stage being drained is the
        // lowest still running, so it charges the meter directly.
        let ctx = RunCtx { exec: self, query };
        let mut root = if want_rows {
            Output::Rows(Vec::new())
        } else {
            Output::Count(Count::default())
        };
        let mut input = ids;
        for k in 0..stages.len() {
            stages[k].log.promote(meter)?;
            stages[k].set_up(&ctx);
            if stages[k].join.breaks() {
                feed(&mut stages[k..], &mut root, &ctx, (0.0, 0), &input);
            } else {
                for chunk in input.chunks(CHUNK_SIZE * stages[k].stride) {
                    if stages[k].log.stopped.get() {
                        break;
                    }
                    feed(&mut stages[k..], &mut root, &ctx, (0.0, 0), chunk);
                }
            }
            let stage = &mut stages[k];
            meter.spent = stage.log.own.get().0;
            if let Some(e) = stage.failed.take() {
                return Err(e);
            }
            if stage.log.stopped.get() {
                // A direct stage stops at the meter's exact crossing. One
                // that stopped while logging crossed in `promote` already;
                // this only keeps it from ever passing for a complete run.
                return Err(FossError::Timeout {
                    spent: meter.spent as u64,
                    budget: meter.budget as u64,
                });
            }
            input = std::mem::take(&mut stage.out);
        }
        Ok(match root {
            Output::Count(Count(n)) => (n, None),
            Output::Rows(data) => {
                let rows = RowSet { rels, data };
                (rows.len() as u64, Some(rows))
            }
        })
    }

    /// Set up `join` over outer tuples laid out as `rels`: scan its inner
    /// side (an index nested loop probes the inner's index in place) and
    /// build what its kernel probes, charging `log`.
    fn stage(
        &self,
        query: &Query,
        rels: &[usize],
        join: &JoinSpec<'_>,
        mut log: &StageLog,
    ) -> Result<Kernel<'a>> {
        let (inner_rel, edges) = (join.inner_rel, join.edges);
        if join.index_nl {
            let key = edges.first().ok_or_else(|| {
                FossError::InvalidPlan("index nested loop requires a join edge".into())
            })?;
            let (table, index, descent) =
                self.index_nl_inner(query, inner_rel, key.right_column)?;
            let preds = query.relations[inner_rel].predicates.clone();
            let pred_cols = preds
                .iter()
                .map(|pr| table.column(pr.column()).values())
                .collect();
            return Ok(Kernel::IndexNl {
                outer: self.outer(query, rels, inner_rel, edges)?,
                index,
                preds,
                pred_cols,
                descent,
            });
        }
        let inner = self.exec_scan(query, inner_rel, join.access, &mut log)?;
        Ok(match (join.method, edges.first()) {
            (JoinMethod::Hash | JoinMethod::Merge, None) => Kernel::Cross(inner),
            (JoinMethod::Hash, Some(key)) => {
                log.charge(inner.len() as f64 * self.cost.params.hash_build)?;
                let outer = self.outer(query, rels, inner_rel, edges)?;
                let col = self.column_slice(query, inner_rel, key.right_column);
                Kernel::Hash(outer, probe::hash_build(&inner, col))
            }
            (JoinMethod::Merge, Some(key)) => Kernel::Merge(
                self.outer(query, rels, inner_rel, edges)?,
                inner,
                self.column_slice(query, inner_rel, key.right_column),
            ),
            (JoinMethod::NestLoop, _) => {
                // Per edge: the outer slot and column, and the inner key
                // values gathered once, aligned with `inner`.
                let lcols = edges
                    .iter()
                    .map(|e| {
                        let col = self.column_slice(query, e.left, e.left_column);
                        Ok((slot_of(rels, e.left)?, col))
                    })
                    .collect::<Result<_>>()?;
                let ivals = edges
                    .iter()
                    .map(|e| {
                        let icol = self.column_slice(query, inner_rel, e.right_column);
                        inner.iter().map(|&row| icol[row as usize]).collect()
                    })
                    .collect();
                Kernel::NestLoop {
                    lcols,
                    rows: inner,
                    ivals,
                }
            }
        })
    }

    /// Where `edges` read outer tuples laid out as `rels`: the first edge is
    /// the key, the rest are checked per match.
    fn outer(
        &self,
        query: &Query,
        rels: &[usize],
        inner_rel: usize,
        edges: &[JoinEdge],
    ) -> Result<Outer<'a>> {
        let Some((key, extra)) = edges.split_first() else {
            return Err(FossError::InvalidPlan("a keyed join needs an edge".into()));
        };
        Ok(Outer {
            key_slot: slot_of(rels, key.left)?,
            key_col: self.column_slice(query, key.left, key.left_column),
            extra: extra
                .iter()
                .map(|e| {
                    Ok((
                        slot_of(rels, e.left)?,
                        self.column_slice(query, e.left, e.left_column),
                        self.column_slice(query, inner_rel, e.right_column),
                    ))
                })
                .collect::<Result<_>>()?,
        })
    }

    /// The scalar reference: the plan's joins one after another, each over
    /// the whole materialised result of the one below.
    fn run_scalar(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        meter: &mut WorkMeter,
    ) -> Result<RowSet> {
        let ((first, access), joins) = spine(plan)?;
        let mut outer = RowSet {
            rels: vec![first],
            data: self.exec_scan(query, first, access, meter)?,
        };
        let live = Liveness::all(query.relation_count());
        for (pos, join) in joins.iter().enumerate() {
            let inner_rel = join.inner_rel;
            let inner = if join.index_nl {
                Vec::new()
            } else {
                self.exec_scan(query, inner_rel, join.access, meter)?
            };
            let layout = Layout::narrow(&outer.rels, inner_rel, &live, pos);
            let mut data = Vec::new();
            let step = JoinStep {
                edges: join.edges,
                outer: &outer,
                inner_rel,
                inner,
            };
            let mut sink = Rows {
                layout: &layout,
                out: &mut data,
            };
            match join.method {
                _ if join.index_nl => self.index_nl_scalar(query, &step, meter, &mut sink)?,
                JoinMethod::Hash | JoinMethod::Merge if join.edges.is_empty() => {
                    let stride = outer.stride();
                    let cross = Kernel::Cross(step.inner);
                    for chunk in outer.data.chunks(CHUNK_SIZE * stride) {
                        cross.run(chunk, stride, &self.cost, meter, &mut sink)?;
                    }
                }
                JoinMethod::Hash => self.hash_scalar(query, &step, meter, &mut sink)?,
                JoinMethod::Merge => self.merge_scalar(query, &step, meter, &mut sink)?,
                JoinMethod::NestLoop => self.nl_scalar(query, &step, meter, &mut sink)?,
            }
            let mut rels = outer.rels;
            layout.apply(&mut rels, inner_rel);
            outer = RowSet { rels, data };
        }
        Ok(outer)
    }

    /// Backing column slice for `(rel, col)` — hoisted out of inner loops by
    /// the chunked operators.
    #[inline]
    fn column_slice(&self, query: &Query, rel: usize, col: usize) -> &'a [i64] {
        self.db
            .table(query.relations[rel].table)
            .column(col)
            .values()
    }

    /// Leaf scan of relation `rel` through `access`: the surviving row ids.
    fn exec_scan<M: Meter>(
        &self,
        query: &Query,
        rel: usize,
        access: &AccessPath,
        meter: &mut M,
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
                            let Some((first, rest)) = preds.split_first() else {
                                out.extend(start as u32..end as u32);
                                continue;
                            };
                            // First predicate streams the contiguous chunk;
                            // the rest refine the selection vector.
                            filter_chunk(first, cols[0], start, end, &mut sel);
                            for (pr, col) in rest.iter().zip(&cols[1..]) {
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

    /// Whether the match `(t, inner_row)` meets every condition but the key
    /// edge; `slots` holds each edge's outer slot.
    fn check_extra_edges(
        &self,
        query: &Query,
        t: &[u32],
        slots: &[usize],
        inner_rel: usize,
        inner_row: u32,
        edges: &[JoinEdge],
    ) -> bool {
        edges.iter().zip(slots).skip(1).all(|(e, &slot)| {
            self.value(query, e.left, e.left_column, t[slot])
                == self.value(query, inner_rel, e.right_column, inner_row)
        })
    }

    /// The outer slot each join edge reads.
    fn edge_slots(outer: &RowSet, edges: &[JoinEdge]) -> Result<Vec<usize>> {
        edges.iter().map(|e| slot_of(&outer.rels, e.left)).collect()
    }

    /// Row-at-a-time reference build + probe.
    fn hash_scalar<S: Sink>(
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
        } = step;
        let inner_rel = *inner_rel;
        let key = edges[0];
        meter.charge(inner.len() as f64 * p.hash_build)?;
        let mut table: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
        for &row in inner {
            table
                .entry(self.value(query, inner_rel, key.right_column, row))
                .or_default()
                .push(row);
        }
        let slots = Self::edge_slots(outer, edges)?;
        let mut emits = BatchCharge::new(p.output_tuple);
        let n = outer.len();
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            meter.charge((end - start) as f64 * p.hash_probe)?;
            for i in start..end {
                let t = outer.tuple(i);
                let lv = self.value(query, key.left, key.left_column, t[slots[0]]);
                if let Some(cands) = table.get(&lv) {
                    for &row in cands {
                        if self.check_extra_edges(query, t, &slots, inner_rel, row, edges) {
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

    fn merge_scalar<S: Sink>(
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
        } = step;
        let inner_rel = *inner_rel;
        let key = edges[0];
        meter.charge(self.cost.sort(outer.len() as f64) + self.cost.sort(inner.len() as f64))?;
        let slots = Self::edge_slots(outer, edges)?;
        let okey =
            |i: usize| self.value(query, key.left, key.left_column, outer.tuple(i)[slots[0]]);
        let ikey = |row: u32| self.value(query, inner_rel, key.right_column, row);
        // Sort outer tuple indexes and inner rows by (key value, position):
        // the positional tie-break keeps equal-key orders identical across
        // engines (unstable sorts would otherwise be free to differ).
        let mut oidx: Vec<usize> = (0..outer.len()).collect();
        let mut irows: Vec<u32> = inner.clone();
        oidx.sort_unstable_by_key(|&i| (okey(i), i));
        irows.sort_unstable_by_key(|&row| (ikey(row), row));
        let okeys: Vec<i64> = oidx.iter().map(|&i| okey(i)).collect();
        let ikeys: Vec<i64> = irows.iter().map(|&row| ikey(row)).collect();

        meter.charge((outer.len() + inner.len()) as f64 * p.merge_step)?;
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
                    for &row in &irows[jstart..jend] {
                        if self.check_extra_edges(query, t, &slots, inner_rel, row, edges) {
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

    fn nl_scalar<S: Sink>(
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
        } = step;
        let slots = Self::edge_slots(outer, edges)?;
        let n = outer.len();
        let mut emits = BatchCharge::new(p.output_tuple);
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            // Charge a whole inner pass per chunk of outer rows so
            // catastrophic loops hit the budget after the first chunk.
            meter.charge((end - start) as f64 * inner.len() as f64 * p.nl_pair)?;
            for i in start..end {
                let t = outer.tuple(i);
                'inner: for &row in inner {
                    for (e, &slot) in edges.iter().zip(&slots) {
                        let lv = self.value(query, e.left, e.left_column, t[slot]);
                        let rv = self.value(query, *inner_rel, e.right_column, row);
                        if lv != rv {
                            continue 'inner;
                        }
                    }
                    sink.push(t, row);
                    emits.emitted(meter)?;
                }
            }
            emits.flush(meter)?;
        }
        Ok(())
    }

    /// The inner side of an index nested loop keyed on `right_col` of
    /// `inner_rel`: its table, the hash index on that column, and the charge
    /// for one descent into it.
    fn index_nl_inner(
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

    fn index_nl_scalar<S: Sink>(
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
        let slots = Self::edge_slots(outer, edges)?;
        let n = outer.len();
        let mut fetches = BatchCharge::new(p.index_fetch + p.pred_eval * preds.len() as f64);
        let mut emits = BatchCharge::new(p.output_tuple);
        for start in (0..n).step_by(CHUNK_SIZE) {
            let end = (start + CHUNK_SIZE).min(n);
            meter.charge((end - start) as f64 * descent)?;
            for i in start..end {
                let t = outer.tuple(i);
                let lv = self.value(query, key.left, key.left_column, t[slots[0]]);
                let fetched = index.lookup(lv);
                fetches.add(fetched.len(), meter)?;
                'fetch: for &row in fetched {
                    for pr in preds {
                        if !pr.matches(table.column(pr.column()).get(row as usize)) {
                            continue 'fetch;
                        }
                    }
                    if !self.check_extra_edges(query, t, &slots, inner_rel, row, edges) {
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

    /// A four-relation chain over one table `t (id, fk)` with
    /// `fk = id % (rows / 2)`: relation `i` joins relation `i + 1` on
    /// `id = fk`, so each join keeps about `rows` tuples, several chunks.
    fn chain_setup(rows: i64) -> (Database, TraditionalOptimizer, Query) {
        let mut schema = Schema::new();
        schema
            .add_table(TableDef {
                name: "t".into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::indexed("fk")],
            })
            .unwrap();
        let schema = Arc::new(schema);
        let t = Table::new(
            "t",
            vec![
                ("id".into(), Column::new((0..rows).collect())),
                (
                    "fk".into(),
                    Column::new((0..rows).map(|i| i % (rows / 2)).collect()),
                ),
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![t], 8).unwrap();
        let opt = TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(db.stats_vec()),
            CostModel::default(),
        );
        let mut qb = QueryBuilder::new(QueryId::new(4), 1);
        let table = schema.table_id("t").unwrap();
        let rels: Vec<usize> = (0..4)
            .map(|i| qb.relation(table, format!("t{i}")))
            .collect();
        for pair in rels.windows(2) {
            qb.join(pair[0], 0, pair[1], 1);
        }
        let q = qb.build(&schema).unwrap();
        (db, opt, q)
    }

    /// Under budgets that first cross in the bottom join, in a middle join
    /// and in the root — on an all-hash chain, and on one with a merge join
    /// (the pipeline breaker) in the middle — the pipeline stops with the
    /// scalar engine's `Timeout { spent, budget }` exactly.
    #[test]
    fn stop_rule_matches_scalar_wherever_the_budget_crosses() {
        let (db, opt, q) = chain_setup(6000);
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let (hash, merge) = (JoinMethod::Hash, JoinMethod::Merge);
        for methods in [vec![hash, hash, hash], vec![hash, merge, hash]] {
            let icp = Icp::new(vec![0, 1, 2, 3], methods.clone()).unwrap();
            let plan = opt.optimize_with_hint(&q, &icp).unwrap();
            // The scalar latency through the scan and through each join:
            // the latency of the plan's left spine cut at that node.
            let mut through = Vec::new();
            let mut node = &plan.root;
            loop {
                let cut = PhysicalPlan { root: node.clone() };
                through.push(scalar.execute(&q, &cut, None).unwrap().latency);
                match node {
                    PlanNode::Join { left, .. } => node = left,
                    PlanNode::Scan { .. } => break,
                }
            }
            through.reverse();
            assert_eq!(through.len(), 4, "a scan and three joins");
            for join in 1..through.len() {
                let budget = (through[join - 1] + through[join]) / 2.0;
                match (
                    chunked.execute(&q, &plan, Some(budget)),
                    scalar.execute(&q, &plan, Some(budget)),
                ) {
                    (
                        Err(FossError::Timeout { spent, budget: b }),
                        Err(FossError::Timeout {
                            spent: scalar_spent,
                            budget: scalar_b,
                        }),
                    ) => {
                        assert_eq!(
                            (spent, b),
                            (scalar_spent, scalar_b),
                            "{methods:?} join {join}"
                        );
                        // The crossing charge is join `join`'s.
                        assert!(spent as f64 > through[join - 1] && spent as f64 <= through[join]);
                    }
                    other => {
                        panic!("{methods:?} join {join}: expected twin timeouts, got {other:?}")
                    }
                }
            }
        }
    }

    /// A join that fails as it sets up — here the middle join's edge reads a
    /// relation no join below it supplies — fails the run only after the
    /// charges before it: the pipeline reports the scalar engine's error
    /// under a budget the failure comes first, and its `Timeout` under one
    /// that crosses first.
    #[test]
    fn set_up_failure_matches_scalar_under_any_budget() {
        let (db, opt, q) = chain_setup(6000);
        let chunked = Executor::new(&db, *opt.cost_model());
        let scalar = Executor::with_mode(&db, *opt.cost_model(), ExecMode::Scalar);
        let icp = Icp::new(vec![0, 1, 2, 3], vec![JoinMethod::Hash; 3]).unwrap();
        let mut plan = opt.optimize_with_hint(&q, &icp).unwrap();
        let PlanNode::Join { left, .. } = &mut plan.root else {
            panic!("the root is a join")
        };
        let PlanNode::Join { edges, .. } = &mut **left else {
            panic!("the middle is a join")
        };
        edges[0].left = 3;
        let (mut invalid, mut timeouts) = (0, 0);
        for budget in [None]
            .into_iter()
            .chain((0..24).map(|k| Some(10f64.powf(k as f64 / 4.0))))
        {
            let got = chunked.execute(&q, &plan, budget);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", scalar.execute(&q, &plan, budget)),
                "budget {budget:?}"
            );
            match got {
                Err(FossError::InvalidPlan(_)) => invalid += 1,
                Err(FossError::Timeout { .. }) => timeouts += 1,
                other => panic!("budget {budget:?}: {other:?}"),
            }
        }
        assert!(invalid > 0 && timeouts > 0, "{invalid} / {timeouts}");
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
}
