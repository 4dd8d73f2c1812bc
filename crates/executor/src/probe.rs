//! The chunked join kernels: one hash build+probe loop and one index
//! nested-loop fetch loop, run by both the interpreter ([`crate::exec`],
//! `ExecMode::Chunked`) and the fused tier ([`crate::fused`]).
//!
//! A kernel owns the matching and the metering — one probe (or descent)
//! charge per [`CHUNK_SIZE`] outer tuples, fetched rows and emitted tuples
//! accrued through [`BatchCharge`] and flushed per chunk — and hands every
//! match `(outer tuple, inner row)` to the caller's `emit`, which decides what
//! of it to keep: the interpreter appends the whole pair, the tier keeps only
//! the slots later stages read, or just counts. The scalar reference in
//! `exec.rs` charges the same sequence row-at-a-time; the differential suites
//! hold the two bit-identical.
//!
//! The tier runs these on the serving path, so this module stays panic-free
//! (`foss-lint` enforces the no-`unwrap`/`expect`/`panic!` rule here as it
//! does for `fused.rs`).

use foss_common::{FxHashMap, Result};
use foss_optimizer::CostParams;
use foss_query::Predicate;
use foss_storage::{HashIndex, Table};

use crate::exec::{BatchCharge, EdgeCols, WorkMeter, CHUNK_SIZE};

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
pub(crate) fn hash_join(
    outer: &Outer<'_>,
    build_rows: &[u32],
    build_col: &[i64],
    p: &CostParams,
    meter: &mut WorkMeter,
    mut emit: impl FnMut(&[u32], u32),
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
                for &row in cands {
                    emit(t, row);
                    emits.emitted(meter)?;
                }
            } else {
                for &row in cands {
                    if outer.matches_extra(t, row) {
                        emit(t, row);
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
pub(crate) fn index_nl_join(
    outer: &Outer<'_>,
    table: &Table,
    index: &HashIndex,
    preds: &[Predicate],
    descent: f64,
    p: &CostParams,
    meter: &mut WorkMeter,
    mut emit: impl FnMut(&[u32], u32),
) -> Result<()> {
    let pred_cols: Vec<&[i64]> = preds
        .iter()
        .map(|pr| table.column(pr.column()).values())
        .collect();
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
            'fetch: for &row in fetched {
                for (pr, col) in preds.iter().zip(&pred_cols) {
                    if !pr.matches(col[row as usize]) {
                        continue 'fetch;
                    }
                }
                if !outer.matches_extra(t, row) {
                    continue;
                }
                emit(t, row);
                emits.emitted(meter)?;
            }
        }
        fetches.flush(meter)?;
        emits.flush(meter)?;
    }
    Ok(())
}
