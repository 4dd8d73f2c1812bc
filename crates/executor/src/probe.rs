//! The chunked join kernels: one hash build+probe loop and one index
//! nested-loop fetch loop, run by the interpreter ([`crate::exec`],
//! `ExecMode::Chunked`).
//!
//! A kernel owns the matching and the metering — one probe (or descent)
//! charge per [`CHUNK_SIZE`] outer tuples, fetched rows and emitted tuples
//! accrued through [`BatchCharge`] and flushed per chunk — and hands every
//! match `(outer tuple, inner row)` to the caller's [`Sink`], which decides
//! what of it to keep: [`Rows`] materialises the slots of a [`Layout`] (all of
//! them for `execute_rows`, only those a later join reads in count mode — see
//! [`Liveness`]), [`Count`] keeps nothing. Where a whole run of candidates
//! matches without a per-row condition, `Count` takes it in O(1) and charges
//! through [`BatchCharge::add_each`], which replays the per-tuple charge
//! quanta exactly. The scalar reference in `exec.rs` charges the same
//! sequence row-at-a-time; the differential suites hold all of them
//! bit-identical.
//!
//! Every served execution runs these, so this module stays panic-free
//! (`foss-lint` enforces the no-`unwrap`/`expect`/`panic!` rule here as it
//! does for `cache.rs`).

use foss_common::{FxHashMap, Result};
use foss_optimizer::CostParams;
use foss_query::{JoinEdge, Predicate};
use foss_storage::{HashIndex, Table};

use crate::exec::{BatchCharge, EdgeCols, WorkMeter, CHUNK_SIZE};

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
    fn push_all_charged(
        &mut self,
        t: &[u32],
        rows: &[u32],
        emits: &mut BatchCharge,
        meter: &mut WorkMeter,
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
    fn push_all_charged(
        &mut self,
        _: &[u32],
        rows: &[u32],
        emits: &mut BatchCharge,
        meter: &mut WorkMeter,
    ) -> Result<()> {
        self.0 += rows.len() as u64;
        emits.add_each(rows.len(), meter)
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
    /// above reads from still keeps its inner slot, so the tuple count stays
    /// `data.len() / stride`.
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
}

/// The materialising sink: appends the [`Layout`]'s slots of every match.
pub(crate) struct Rows<'l> {
    layout: &'l Layout,
    pub(crate) out: Vec<u32>,
}

impl<'l> Rows<'l> {
    pub(crate) fn new(layout: &'l Layout) -> Self {
        Self {
            layout,
            out: Vec::new(),
        }
    }
}

impl Sink for Rows<'_> {
    #[inline]
    fn push(&mut self, t: &[u32], row: u32) {
        // `keep` is an ascending subset of the outer slots, so equal length
        // means all of them: the full tuple goes out as one slice copy.
        if self.layout.keep.len() == t.len() {
            self.out.extend_from_slice(t);
        } else {
            self.out
                .extend(self.layout.keep.iter().map(|&slot| t[slot]));
        }
        if self.layout.keep_inner {
            self.out.push(row);
        }
    }
}

/// The probe side of a join: the running pipeline's tuples and where the
/// join conditions read them.
pub(crate) struct Outer<'a> {
    /// Flattened tuples of row ids.
    pub(crate) data: &'a [u32],
    /// Slots per tuple.
    pub(crate) stride: usize,
    /// Slot holding the key edge's outer row id.
    pub(crate) key_slot: usize,
    /// Column that row id indexes for the key value.
    pub(crate) key_col: &'a [i64],
    /// The non-key equi-conditions, hoisted.
    pub(crate) extra: EdgeCols<'a>,
}

impl Outer<'_> {
    #[inline]
    fn matches_extra(&self, t: &[u32], row: u32) -> bool {
        self.extra
            .iter()
            .all(|&(slot, lc, rc)| lc[t[slot] as usize] == rc[row as usize])
    }
}

/// Build a hash table over `build_rows` keyed by `build_col`, then probe it
/// with `outer` a chunk at a time. The caller has already charged the build
/// (`rows × hash_build`); output charges accumulate in chunk quanta so runaway
/// fan-out hits the budget mid-chunk instead of after a whole chunk has
/// materialised.
pub(crate) fn hash_join<S: Sink>(
    outer: &Outer<'_>,
    build_rows: &[u32],
    build_col: &[i64],
    p: &CostParams,
    meter: &mut WorkMeter,
    sink: &mut S,
) -> Result<()> {
    let mut table: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
    for &row in build_rows {
        table.entry(build_col[row as usize]).or_default().push(row);
    }
    let mut emits = BatchCharge::new(p.output_tuple);
    let stride = outer.stride;
    let n = outer.data.len() / stride;
    let mut keys: Vec<i64> = Vec::with_capacity(CHUNK_SIZE);
    for start in (0..n).step_by(CHUNK_SIZE) {
        let end = (start + CHUNK_SIZE).min(n);
        meter.charge((end - start) as f64 * p.hash_probe)?;
        // Columnar gather of the probe keys for this chunk.
        keys.clear();
        keys.extend(
            outer.data[start * stride..end * stride]
                .iter()
                .skip(outer.key_slot)
                .step_by(stride)
                .map(|&r| outer.key_col[r as usize]),
        );
        for (off, lv) in keys.iter().enumerate() {
            let Some(cands) = table.get(lv) else { continue };
            let i = start + off;
            let t = &outer.data[i * stride..(i + 1) * stride];
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
        emits.flush(meter)?;
    }
    Ok(())
}

/// Probe `index` (over the key column of the inner `table`) once per outer
/// tuple and filter each fetched row through the inner relation's `preds`
/// and the extra join conditions; the inner is never scanned. `descent` is
/// the per-probe index charge. Fetched rows and emitted tuples both accrue in
/// chunk quanta: a hot probe key with huge fan-out runs into the budget
/// mid-chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn index_nl_join<S: Sink>(
    outer: &Outer<'_>,
    table: &Table,
    index: &HashIndex,
    preds: &[Predicate],
    descent: f64,
    p: &CostParams,
    meter: &mut WorkMeter,
    sink: &mut S,
) -> Result<()> {
    let pred_cols: Vec<&[i64]> = preds
        .iter()
        .map(|pr| table.column(pr.column()).values())
        .collect();
    let unfiltered = preds.is_empty() && outer.extra.is_empty();
    let mut fetches = BatchCharge::new(p.index_fetch + p.pred_eval * preds.len() as f64);
    let mut emits = BatchCharge::new(p.output_tuple);
    let stride = outer.stride;
    let n = outer.data.len() / stride;
    for start in (0..n).step_by(CHUNK_SIZE) {
        let end = (start + CHUNK_SIZE).min(n);
        meter.charge((end - start) as f64 * descent)?;
        for i in start..end {
            let t = &outer.data[i * stride..(i + 1) * stride];
            let fetched = index.lookup(outer.key_col[t[outer.key_slot] as usize]);
            fetches.add(fetched.len(), meter)?;
            if unfiltered {
                // Every fetched row is a match.
                sink.push_all_charged(t, fetched, &mut emits, meter)?;
                continue;
            }
            'fetch: for &row in fetched {
                for (pr, col) in preds.iter().zip(&pred_cols) {
                    if !pr.matches(col[row as usize]) {
                        continue 'fetch;
                    }
                }
                if !outer.matches_extra(t, row) {
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
