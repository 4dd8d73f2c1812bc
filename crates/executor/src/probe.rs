//! The chunked engine's join kernels and the sinks they emit into.
//!
//! The interpreter ([`crate::exec`], `ExecMode::Chunked`) runs a plan as a
//! push pipeline: each join is a [`Kernel`] that takes its outer input one
//! chunk of at most [`CHUNK_SIZE`](crate::CHUNK_SIZE) tuples at a time. The hash join builds its
//! table once ([`hash_build`]) and probes it per chunk; the index nested loop
//! descends into the inner relation's index per outer tuple; nested-loop and
//! cross joins pair each chunk with their scanned inner rows. The merge join
//! is the one pipeline breaker: it takes its whole outer input as one call.
//!
//! A kernel owns the matching and the metering — one probe (or descent, or
//! pair) charge per chunk, fetched rows and emitted tuples accrued through
//! [`BatchCharge`] and flushed at the chunk's end, all to a [`Meter`] — and
//! hands every match `(outer tuple, inner row)` to a [`Sink`], which decides
//! what of it to keep: [`Rows`] appends the
//! slots of a [`Layout`] (all of them for `execute_rows`, only those a later
//! join reads in count mode — see [`Liveness`]), [`Count`] keeps nothing,
//! and the pipeline's forwarding sink writes them into the next join's
//! input. Where a whole run of candidates matches without a per-row
//! condition, `Count` takes it in O(1) and charges through
//! [`BatchCharge::add_each`], which replays the per-tuple charge quanta
//! exactly. The scalar reference in `exec.rs` charges the same sequence
//! row-at-a-time; the differential suites hold them bit-identical.
//!
//! Every served execution runs these, so this module stays panic-free
//! (`foss-lint` enforces the no-`unwrap`/`expect`/`panic!` rule here as it
//! does for `exec.rs` and `cache.rs`).

use std::slice::ChunksExact;

use foss_common::{FxHashMap, Result};
use foss_optimizer::CostModel;
use foss_query::{JoinEdge, Predicate};
use foss_storage::HashIndex;

use crate::exec::{refine_selection, BatchCharge, EdgeCols, Meter};

/// Where a join's matches go.
pub(crate) trait Sink {
    /// One match.
    fn push(&mut self, t: &[u32], row: u32);

    /// Every row of `rows` matches `t`; the caller has charged for them
    /// already (a cross join's output is known, and charged, up front).
    #[inline]
    fn push_all(&mut self, t: &[u32], rows: &[u32]) {
        for &row in rows {
            self.push(t, row);
        }
    }

    /// Every row of `rows` matches `t`; charge `emits` one unit per tuple as
    /// they go, so runaway fan-out hits the budget mid-run.
    #[inline]
    fn push_all_charged<M: Meter>(
        &mut self,
        t: &[u32],
        rows: &[u32],
        emits: &mut BatchCharge,
        meter: &mut M,
    ) -> Result<()> {
        for &row in rows {
            self.push(t, row);
            emits.emitted(meter)?;
        }
        Ok(())
    }
}

/// The `COUNT(*)` sink: matches are counted, never stored.
#[derive(Default)]
pub(crate) struct Count(pub(crate) u64);

impl Sink for Count {
    #[inline]
    fn push(&mut self, _: &[u32], _: u32) {
        self.0 += 1;
    }

    #[inline]
    fn push_all(&mut self, _: &[u32], rows: &[u32]) {
        self.0 += rows.len() as u64;
    }

    #[inline]
    fn push_all_charged<M: Meter>(
        &mut self,
        _: &[u32],
        rows: &[u32],
        emits: &mut BatchCharge,
        meter: &mut M,
    ) -> Result<()> {
        self.0 += rows.len() as u64;
        emits.add_each(rows.len(), meter)
    }
}

/// The materialising sink: appends the [`Layout`]'s slots of every match.
pub(crate) struct Rows<'s> {
    pub(crate) layout: &'s Layout,
    pub(crate) out: &'s mut Vec<u32>,
}

impl Sink for Rows<'_> {
    #[inline]
    fn push(&mut self, t: &[u32], row: u32) {
        self.layout.write(t, row, self.out);
    }
}

/// Which relations are still read after each join of a left-deep plan — what
/// decides the slots an intermediate tuple has to carry.
pub(crate) struct Liveness {
    /// Per relation, the 1-based position (bottom-up) of the last join whose
    /// conditions read it on the outer side; 0 if none does.
    last_read: Vec<usize>,
}

impl Liveness {
    /// Count mode: a relation lives until the last of `joins` (each join's
    /// edges, bottom-up) that reads it; the root's output keeps nothing.
    pub(crate) fn of<'e>(relations: usize, joins: impl Iterator<Item = &'e [JoinEdge]>) -> Self {
        let mut last_read = vec![0; relations];
        for (pos, edges) in joins.enumerate() {
            for e in edges {
                if let Some(last) = last_read.get_mut(e.left) {
                    *last = pos + 1;
                }
            }
        }
        Self { last_read }
    }

    /// Row mode: every relation stays live, so tuples keep every slot.
    pub(crate) fn all(relations: usize) -> Self {
        Self {
            last_read: vec![usize::MAX; relations],
        }
    }

    /// Whether a join above `join` (0-based, bottom-up) reads `rel`.
    fn after(&self, join: usize, rel: usize) -> bool {
        self.last_read.get(rel).is_some_and(|&last| last > join + 1)
    }
}

/// Which slots of a join's matches survive into its output.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Outer slots copied into each emitted tuple, ascending.
    keep: Vec<usize>,
    /// Whether the inner row id is appended after them.
    keep_inner: bool,
}

impl Layout {
    /// The output of `join` (0-based, bottom-up) over outer tuples of
    /// `rels_in` and `inner_rel`: the slots of the relations `live` after it,
    /// in input order — all of them under [`Liveness::all`]. A join nothing
    /// above reads from still keeps its inner slot, so an output tuple is
    /// never empty.
    pub(crate) fn narrow(
        rels_in: &[usize],
        inner_rel: usize,
        live: &Liveness,
        join: usize,
    ) -> Self {
        let keep: Vec<usize> = (0..rels_in.len())
            .filter(|&slot| live.after(join, rels_in[slot]))
            .collect();
        let keep_inner = live.after(join, inner_rel) || keep.is_empty();
        Self { keep, keep_inner }
    }

    /// Rewrite `rels` from the join's outer layout to its output layout.
    pub(crate) fn apply(&self, rels: &mut Vec<usize>, inner_rel: usize) {
        // `keep` ascends, so slot `to` is never read after it is written.
        for (to, &from) in self.keep.iter().enumerate() {
            rels[to] = rels[from];
        }
        rels.truncate(self.keep.len());
        if self.keep_inner {
            rels.push(inner_rel);
        }
    }

    /// Append the output tuple of the match `(t, row)` to `out`.
    #[inline(always)]
    pub(crate) fn write(&self, t: &[u32], row: u32, out: &mut Vec<u32>) {
        // `keep` is an ascending subset of the outer slots, so equal length
        // means all of them: the full tuple goes out as one slice copy.
        if self.keep.len() == t.len() {
            out.extend_from_slice(t);
        } else {
            out.extend(self.keep.iter().map(|&slot| t[slot]));
        }
        if self.keep_inner {
            out.push(row);
        }
    }
}

/// Where a join's conditions read the outer tuples: the key edge's slot and
/// column, and the non-key equi-conditions, hoisted.
pub(crate) struct Outer<'a> {
    /// Slot holding the key edge's outer row id.
    pub(crate) key_slot: usize,
    /// Column that row id indexes for the key value.
    pub(crate) key_col: &'a [i64],
    /// The non-key equi-conditions.
    pub(crate) extra: EdgeCols<'a>,
}

impl Outer<'_> {
    #[inline]
    fn key(&self, t: &[u32]) -> i64 {
        self.key_col[t[self.key_slot] as usize]
    }

    #[inline]
    fn matches_extra(&self, t: &[u32], row: u32) -> bool {
        self.extra
            .iter()
            .all(|&(slot, lc, rc)| lc[t[slot] as usize] == rc[row as usize])
    }
}

/// A hash join's build side: inner row ids by key value, in scan order.
pub(crate) type HashTable = FxHashMap<i64, Vec<u32>>;

/// Build the hash table over `rows` keyed by `col`. The caller charges the
/// build (`rows × hash_build`) first.
pub(crate) fn hash_build(rows: &[u32], col: &[i64]) -> HashTable {
    let mut table = HashTable::default();
    for &row in rows {
        table.entry(col[row as usize]).or_default().push(row);
    }
    table
}

/// One join of the pipeline, its inner side ready: what it runs over each
/// chunk of outer tuples.
pub(crate) enum Kernel<'a> {
    /// Probe a table built once over the inner scan.
    Hash(Outer<'a>, HashTable),
    /// Descend into the inner relation's hash index once per outer tuple and
    /// filter each fetched row through the inner's predicates (`preds`, read
    /// from `pred_cols`); the inner is never scanned. `descent` is the
    /// per-probe index charge.
    IndexNl {
        outer: Outer<'a>,
        index: &'a HashIndex,
        preds: Vec<Predicate>,
        pred_cols: Vec<&'a [i64]>,
        descent: f64,
    },
    /// Compare every outer tuple with every inner row: per edge, the outer
    /// `(slot, column)` and the inner key values gathered in `rows` order.
    NestLoop {
        lcols: Vec<(usize, &'a [i64])>,
        rows: Vec<u32>,
        ivals: Vec<Vec<i64>>,
    },
    /// Pair every outer tuple with every inner row (no join condition).
    Cross(Vec<u32>),
    /// Sort both sides on the key and merge; `icol` is the inner key column.
    /// The pipeline breaker: it runs once, over its whole outer input.
    Merge(Outer<'a>, Vec<u32>, &'a [i64]),
}

impl Kernel<'_> {
    /// Join the outer tuples `data` (`stride` slots each) with the inner
    /// side: a chunk of at most [`crate::CHUNK_SIZE`] tuples, or a merge join's
    /// whole input.
    pub(crate) fn run<M: Meter, S: Sink>(
        &self,
        data: &[u32],
        stride: usize,
        cost: &CostModel,
        meter: &mut M,
        sink: &mut S,
    ) -> Result<()> {
        let tuples = data.chunks_exact(stride);
        match self {
            Kernel::Hash(outer, table) => hash_probe(outer, tuples, table, cost, meter, sink),
            Kernel::IndexNl {
                outer,
                index,
                preds,
                pred_cols,
                descent,
            } => index_nl_probe(
                outer, tuples, index, preds, pred_cols, *descent, cost, meter, sink,
            ),
            Kernel::NestLoop { lcols, rows, ivals } => {
                nl_probe(tuples, lcols, rows, ivals, cost, meter, sink)
            }
            Kernel::Cross(rows) => {
                // The output size is known up front, so the whole chunk is
                // charged *before* emitting anything: a catastrophic product
                // aborts without producing its tuples.
                let pairs = tuples.len() as f64 * rows.len() as f64;
                meter.charge(pairs * cost.params.nl_pair)?;
                meter.charge(pairs * cost.params.output_tuple)?;
                for t in tuples {
                    sink.push_all(t, rows);
                }
                Ok(())
            }
            Kernel::Merge(outer, rows, icol) => {
                merge(outer, data, stride, rows, icol, cost, meter, sink)
            }
        }
    }
}

/// Probe `table` with each tuple of one chunk.
fn hash_probe<M: Meter, S: Sink>(
    outer: &Outer<'_>,
    tuples: ChunksExact<'_, u32>,
    table: &HashTable,
    cost: &CostModel,
    meter: &mut M,
    sink: &mut S,
) -> Result<()> {
    let p = &cost.params;
    meter.charge(tuples.len() as f64 * p.hash_probe)?;
    // Columnar gather of the probe keys for this chunk.
    let keys: Vec<i64> = tuples.clone().map(|t| outer.key(t)).collect();
    let mut emits = BatchCharge::new(p.output_tuple);
    for (t, lv) in tuples.zip(&keys) {
        let Some(cands) = table.get(lv) else { continue };
        if outer.extra.is_empty() {
            // Pure projection: every candidate is a match.
            sink.push_all_charged(t, cands, &mut emits, meter)?;
        } else {
            for &row in cands {
                if outer.matches_extra(t, row) {
                    sink.push(t, row);
                    emits.emitted(meter)?;
                }
            }
        }
    }
    emits.flush(meter)
}

/// Fetched runs at least this long are filtered predicate at a time rather
/// than row at a time; both give the same rows in the same order, charged
/// alike. A hot key's run is scanned again for every outer tuple that
/// carries it, and row at a time its predicate outcomes are branches that
/// the other stages of the pipeline, running in between, keep the predictor
/// from learning. Short runs pay more for setting up a selection than they
/// save. Timed over 2 000 fresh expert plans of each workload (best of 5,
/// four rounds in alternating order, 2-core VM): at 16, `joblite` ran in
/// 59–68 ms and `skewstress` in 561–606 ms; predicate at a time throughout,
/// 77–123 and 621–693 ms; row at a time throughout, 60–67 and 917–965 ms.
/// Every minimum from 2 to 64 timed within noise of 16.
const RUN_FILTER_MIN: usize = 16;

/// Descend into `index` once per tuple of one chunk and filter each fetched
/// row through the inner relation's `preds` (read from `pred_cols`) and the
/// extra join conditions. Fetched rows and emitted tuples both accrue in
/// chunk quanta: a hot probe key with huge fan-out runs into the budget
/// mid-chunk.
#[allow(clippy::too_many_arguments)]
fn index_nl_probe<M: Meter, S: Sink>(
    outer: &Outer<'_>,
    tuples: ChunksExact<'_, u32>,
    index: &HashIndex,
    preds: &[Predicate],
    pred_cols: &[&[i64]],
    descent: f64,
    cost: &CostModel,
    meter: &mut M,
    sink: &mut S,
) -> Result<()> {
    let p = &cost.params;
    let unfiltered = preds.is_empty() && outer.extra.is_empty();
    let mut fetches = BatchCharge::new(p.index_fetch + p.pred_eval * preds.len() as f64);
    let mut emits = BatchCharge::new(p.output_tuple);
    meter.charge(tuples.len() as f64 * descent)?;
    let mut sel: Vec<u32> = Vec::new();
    for t in tuples {
        let fetched = index.lookup(outer.key(t));
        fetches.add(fetched.len(), meter)?;
        if unfiltered {
            // Every fetched row is a match.
            sink.push_all_charged(t, fetched, &mut emits, meter)?;
            continue;
        }
        if fetched.len() < RUN_FILTER_MIN {
            'fetch: for &row in fetched {
                for (pr, col) in preds.iter().zip(pred_cols) {
                    if !pr.matches(col[row as usize]) {
                        continue 'fetch;
                    }
                }
                if outer.matches_extra(t, row) {
                    sink.push(t, row);
                    emits.emitted(meter)?;
                }
            }
            continue;
        }
        // Filter the fetched rows predicate at a time, branch-free, and
        // hand the survivors on as one run (in fetch order, so the emit
        // charges fall as they would row by row).
        sel.clear();
        sel.extend_from_slice(fetched);
        for (pr, col) in preds.iter().zip(pred_cols) {
            refine_selection(pr, col, &mut sel);
        }
        if !outer.extra.is_empty() {
            sel.retain(|&row| outer.matches_extra(t, row));
        }
        sink.push_all_charged(t, &sel, &mut emits, meter)?;
    }
    fetches.flush(meter)?;
    emits.flush(meter)
}

/// Compare each tuple of one chunk with every inner row.
fn nl_probe<M: Meter, S: Sink>(
    tuples: ChunksExact<'_, u32>,
    lcols: &[(usize, &[i64])],
    rows: &[u32],
    ivals: &[Vec<i64>],
    cost: &CostModel,
    meter: &mut M,
    sink: &mut S,
) -> Result<()> {
    // A whole inner pass per chunk of outer tuples, charged up front, so a
    // catastrophic loop hits the budget after one chunk.
    meter.charge(tuples.len() as f64 * rows.len() as f64 * cost.params.nl_pair)?;
    let mut emits = BatchCharge::new(cost.params.output_tuple);
    for t in tuples {
        match (lcols, ivals) {
            // Single equi-join edge: stream the gathered inner keys (the
            // common case).
            ([(slot, lcol)], [only]) => {
                let lv = lcol[t[*slot] as usize];
                for (&rv, &row) in only.iter().zip(rows) {
                    if rv == lv {
                        sink.push(t, row);
                        emits.emitted(meter)?;
                    }
                }
            }
            _ => {
                let lvs: Vec<i64> = lcols
                    .iter()
                    .map(|&(slot, lc)| lc[t[slot] as usize])
                    .collect();
                for (j, &row) in rows.iter().enumerate() {
                    if ivals.iter().zip(&lvs).all(|(iv, &lv)| iv[j] == lv) {
                        sink.push(t, row);
                        emits.emitted(meter)?;
                    }
                }
            }
        }
    }
    emits.flush(meter)
}

/// Sort-merge `data` (`stride` slots per tuple) with the inner `rows` keyed
/// by `icol`, emitting the cartesian product of every equal-key group.
#[allow(clippy::too_many_arguments)]
fn merge<M: Meter, S: Sink>(
    outer: &Outer<'_>,
    data: &[u32],
    stride: usize,
    rows: &[u32],
    icol: &[i64],
    cost: &CostModel,
    meter: &mut M,
    sink: &mut S,
) -> Result<()> {
    let n = data.len() / stride;
    meter.charge(cost.sort(n as f64) + cost.sort(rows.len() as f64))?;
    let tuple = |i: usize| &data[i * stride..(i + 1) * stride];
    // Sort outer tuple indexes and inner rows by (key value, position): the
    // positional tie-break keeps equal-key orders identical across engines
    // (unstable sorts would otherwise be free to differ). Each side's keys
    // are gathered once, then realigned with the sorted order.
    let mut oidx: Vec<usize> = (0..n).collect();
    oidx.sort_unstable_by_key(|&i| (outer.key(tuple(i)), i));
    let mut irows = rows.to_vec();
    irows.sort_unstable_by_key(|&row| (icol[row as usize], row));
    let okeys: Vec<i64> = oidx.iter().map(|&i| outer.key(tuple(i))).collect();
    let ikeys: Vec<i64> = irows.iter().map(|&row| icol[row as usize]).collect();

    meter.charge((n + rows.len()) as f64 * cost.params.merge_step)?;
    let mut emits = BatchCharge::new(cost.params.output_tuple);
    let (mut i, mut j) = (0usize, 0usize);
    while i < oidx.len() && j < irows.len() {
        let (ov, iv) = (okeys[i], ikeys[j]);
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
            let group = &irows[jstart..jend];
            while i < oidx.len() && okeys[i] == ov {
                let t = tuple(oidx[i]);
                i += 1;
                if outer.extra.is_empty() {
                    // Key edge only: every pair of the group matches.
                    sink.push_all_charged(t, group, &mut emits, meter)?;
                    continue;
                }
                for &row in group {
                    if outer.matches_extra(t, row) {
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
