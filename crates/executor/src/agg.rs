//! Chunk-at-a-time group-by aggregation over materialised join results.
//!
//! The paper's queries are `COUNT(*)` blocks, which the executor folds for
//! free out of the result-set length. This module generalises the root
//! aggregate to `SUM` / `MIN` / `MAX` with an optional single-column group
//! key ([`foss_query::AggSpec`]): the join result's tuples are consumed one
//! [`CHUNK_SIZE`] chunk at a time, gathering the projected columns the
//! [`RowSet`] carries (`RowSet::proj`, threaded down from the query by
//! [`Executor::execute_agg`]) and folding them into per-group accumulators.
//!
//! The aggregation is engine-independent: it runs over the final tuple set,
//! which both [`crate::exec::ExecMode`]s produce byte-identically, and its
//! meter charges accrue in one fixed order — so latency stays bit-identical
//! across engines with the aggregate attached.

use foss_common::{FxHashMap, Result};
use foss_query::{AggFunc, AggSpec, ColRef, Query};

use crate::exec::{Executor, RowSet, WorkMeter, CHUNK_SIZE};

/// One output row of an aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRow {
    /// The group key (`None` for a global aggregate).
    pub group: Option<i64>,
    /// One value per [`AggSpec::aggs`] entry, in spec order. `COUNT` and
    /// `SUM` are always present (0 on empty input); `MIN`/`MAX` are `None`
    /// when the group saw no rows (only possible for the global group).
    pub values: Vec<Option<i64>>,
}

/// An aggregation result: rows sorted by group key (a single row for global
/// aggregates, present even on empty input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggResult {
    /// Output rows in ascending group-key order.
    pub rows: Vec<AggRow>,
}

struct Acc {
    value: i64,
    seen: bool,
}

/// Fold `rows` into per-group accumulators, charging the meter one chunk at
/// a time (`cpu_tuple` per tuple per projected output column).
pub(crate) fn aggregate(
    exec: &Executor<'_>,
    query: &Query,
    rows: &RowSet,
    meter: &mut WorkMeter,
) -> Result<AggResult> {
    let spec = query.agg.clone().unwrap_or_else(AggSpec::count_star);
    let p = exec.cost.params;
    // Hoist the projected columns the RowSet declares; every aggregation
    // input must travel through that projection list.
    let hoisted: Vec<(ColRef, usize, &[i64])> = rows
        .proj
        .iter()
        .map(|&c| {
            (
                c,
                rows.slot_of(c.rel),
                exec.column_slice(query, c.rel, c.column),
            )
        })
        .collect();
    let find = |c: ColRef| {
        hoisted
            .iter()
            .find(|&&(hc, _, _)| hc == c)
            .map(|&(_, slot, col)| (slot, col))
            .expect("aggregation column missing from the RowSet projection")
    };
    let group = spec.group_by.map(find);
    let inputs: Vec<Option<(usize, &[i64])>> =
        spec.aggs.iter().map(|a| a.input().map(find)).collect();

    let n = rows.len();
    let stride = rows.stride().max(1);
    // One output column per aggregate plus the (implicit) group key.
    let width = (1 + spec.aggs.len()) as f64;
    let fresh = |aggs: &[AggFunc]| -> Vec<Acc> {
        aggs.iter()
            .map(|_| Acc {
                value: 0,
                seen: false,
            })
            .collect()
    };
    let mut index: FxHashMap<i64, usize> = FxHashMap::default();
    let mut groups: Vec<(i64, Vec<Acc>)> = Vec::new();
    if group.is_none() {
        // Global aggregates produce exactly one row, even on empty input.
        index.insert(0, 0);
        groups.push((0, fresh(&spec.aggs)));
    }
    for start in (0..n).step_by(CHUNK_SIZE) {
        let end = (start + CHUNK_SIZE).min(n);
        meter.charge((end - start) as f64 * p.cpu_tuple * width)?;
        for i in start..end {
            let t = &rows.data[i * stride..(i + 1) * stride];
            let key = group.map_or(0, |(slot, col)| col[t[slot] as usize]);
            let gi = match index.get(&key) {
                Some(&gi) => gi,
                None => {
                    index.insert(key, groups.len());
                    groups.push((key, fresh(&spec.aggs)));
                    groups.len() - 1
                }
            };
            let accs = &mut groups[gi].1;
            for (ai, (a, inp)) in spec.aggs.iter().zip(&inputs).enumerate() {
                let acc = &mut accs[ai];
                match a {
                    AggFunc::Count => acc.value = acc.value.wrapping_add(1),
                    AggFunc::Sum(_) => {
                        let (slot, col) = inp.expect("SUM carries an input column");
                        acc.value = acc.value.wrapping_add(col[t[slot] as usize]);
                    }
                    AggFunc::Min(_) => {
                        let (slot, col) = inp.expect("MIN carries an input column");
                        let v = col[t[slot] as usize];
                        if !acc.seen || v < acc.value {
                            acc.value = v;
                        }
                    }
                    AggFunc::Max(_) => {
                        let (slot, col) = inp.expect("MAX carries an input column");
                        let v = col[t[slot] as usize];
                        if !acc.seen || v > acc.value {
                            acc.value = v;
                        }
                    }
                }
                acc.seen = true;
            }
        }
    }
    // Deterministic output order: ascending group key.
    groups.sort_unstable_by_key(|&(k, _)| k);
    let rows = groups
        .into_iter()
        .map(|(k, accs)| AggRow {
            group: spec.group_by.map(|_| k),
            values: accs
                .iter()
                .zip(&spec.aggs)
                .map(|(acc, a)| match a {
                    AggFunc::Count | AggFunc::Sum(_) => Some(acc.value),
                    AggFunc::Min(_) | AggFunc::Max(_) => acc.seen.then_some(acc.value),
                })
                .collect(),
        })
        .collect();
    Ok(AggResult { rows })
}
