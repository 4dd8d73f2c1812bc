//! The cost model shared by the optimizer (with *estimated* cardinalities)
//! and the executor (with *actual* work counts).
//!
//! Costs are expressed in abstract **work units** (~ one tuple touch). The
//! executor in `foss-executor` charges the very same constants for the work
//! it actually performs, so "true latency" and "estimated cost" live on the
//! same scale and differ only through cardinality estimation error — the
//! mechanism the paper attributes PostgreSQL's suboptimal plans to.

use serde::{Deserialize, Serialize};

use crate::icp::JoinMethod;

/// Tunable cost constants (defaults roughly follow the relative magnitudes
/// of PostgreSQL's `cpu_tuple_cost` family).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostParams {
    /// Cost of emitting/scanning one tuple.
    pub cpu_tuple: f64,
    /// Cost of evaluating one predicate on one tuple.
    pub pred_eval: f64,
    /// Cost of inserting one tuple into a hash table (build side).
    pub hash_build: f64,
    /// Cost of probing the hash table with one tuple.
    pub hash_probe: f64,
    /// Per-row-per-log2(rows) cost of sorting an input for merge join.
    pub sort_factor: f64,
    /// Cost of advancing one input tuple during the merge phase.
    pub merge_step: f64,
    /// Cost of one (outer × inner) pair comparison in a naive nested loop.
    pub nl_pair: f64,
    /// Fixed cost of one index probe (B-tree descent).
    pub index_probe: f64,
    /// Cost of fetching one matching tuple from an index.
    pub index_fetch: f64,
    /// Cost of materialising one output tuple of a join.
    pub output_tuple: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            cpu_tuple: 1.0,
            pred_eval: 0.2,
            hash_build: 1.7,
            hash_probe: 1.2,
            sort_factor: 0.12,
            merge_step: 1.0,
            nl_pair: 0.55,
            index_probe: 4.0,
            index_fetch: 1.0,
            output_tuple: 0.3,
        }
    }
}

/// Computes operator costs from cardinalities (estimated or actual).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// The constants in use.
    pub params: CostParams,
}

impl CostModel {
    /// Model with explicit constants.
    pub fn new(params: CostParams) -> Self {
        Self { params }
    }

    /// Cost of a sequential scan over `table_rows` rows evaluating
    /// `n_predicates` predicates per row.
    pub fn seq_scan(&self, table_rows: f64, n_predicates: usize) -> f64 {
        table_rows * (self.params.cpu_tuple + self.params.pred_eval * n_predicates as f64)
    }

    /// Cost of one descent into an index over `table_rows` rows. The
    /// optimizer's estimate and the executor's meter must agree on this bit
    /// for bit, so every site calls here.
    pub fn index_descent(&self, table_rows: f64) -> f64 {
        self.params.index_probe + 0.3 * table_rows.max(2.0).log2()
    }

    /// Cost of an index scan returning `matching_rows` of `table_rows`,
    /// then filtering with `residual_predicates`.
    pub fn index_scan(
        &self,
        table_rows: f64,
        matching_rows: f64,
        residual_predicates: usize,
    ) -> f64 {
        self.index_descent(table_rows)
            + matching_rows
                * (self.params.index_fetch + self.params.pred_eval * residual_predicates as f64)
    }

    /// Cost of sorting `rows` tuples (merge-join input preparation).
    pub fn sort(&self, rows: f64) -> f64 {
        let r = rows.max(2.0);
        self.params.sort_factor * r * r.log2()
    }

    /// Incremental cost of a join (children's costs excluded).
    ///
    /// * `outer_rows` / `inner_rows` — input cardinalities;
    /// * `out_rows` — output cardinality;
    /// * `index_nl` — nested loop probes an inner-side index instead of
    ///   rescanning (only meaningful for [`JoinMethod::NestLoop`]);
    /// * `inner_table_rows` — base-table size behind the index.
    pub fn join(
        &self,
        method: JoinMethod,
        outer_rows: f64,
        inner_rows: f64,
        out_rows: f64,
        index_nl: bool,
        inner_table_rows: f64,
    ) -> f64 {
        let p = &self.params;
        let emit = out_rows * p.output_tuple;
        match method {
            JoinMethod::Hash => inner_rows * p.hash_build + outer_rows * p.hash_probe + emit,
            JoinMethod::Merge => {
                self.sort(outer_rows)
                    + self.sort(inner_rows)
                    + (outer_rows + inner_rows) * p.merge_step
                    + emit
            }
            JoinMethod::NestLoop => {
                if index_nl {
                    let descent = self.index_descent(inner_table_rows);
                    let fetched = (out_rows / outer_rows.max(1.0)).max(0.0);
                    outer_rows * (descent + fetched * p.index_fetch) + emit
                } else {
                    outer_rows * inner_rows * p.nl_pair + emit
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn seq_scan_scales_with_predicates() {
        let a = m().seq_scan(1000.0, 0);
        let b = m().seq_scan(1000.0, 3);
        assert!(b > a);
        assert!((a - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn index_scan_beats_seq_scan_for_selective_lookups() {
        let seq = m().seq_scan(100_000.0, 1);
        let idx = m().index_scan(100_000.0, 10.0, 0);
        assert!(idx < seq / 100.0, "idx={idx} seq={seq}");
    }

    #[test]
    fn hash_join_beats_naive_nl_on_large_inputs() {
        let hash = m().join(
            JoinMethod::Hash,
            10_000.0,
            10_000.0,
            10_000.0,
            false,
            10_000.0,
        );
        let nl = m().join(
            JoinMethod::NestLoop,
            10_000.0,
            10_000.0,
            10_000.0,
            false,
            10_000.0,
        );
        assert!(hash < nl / 100.0, "hash={hash} nl={nl}");
    }

    #[test]
    fn index_nl_beats_hash_for_tiny_outer() {
        // 3 outer rows probing an indexed table of 1M rows: NL should win —
        // the paper's query-1b situation.
        let hash = m().join(JoinMethod::Hash, 3.0, 1_000_000.0, 3.0, false, 1_000_000.0);
        let inl = m().join(
            JoinMethod::NestLoop,
            3.0,
            1_000_000.0,
            3.0,
            true,
            1_000_000.0,
        );
        assert!(inl < hash / 1000.0, "inl={inl} hash={hash}");
    }

    #[test]
    fn merge_pays_for_sorting() {
        let merge = m().join(JoinMethod::Merge, 1000.0, 1000.0, 1000.0, false, 1000.0);
        let hash = m().join(JoinMethod::Hash, 1000.0, 1000.0, 1000.0, false, 1000.0);
        assert!(merge > hash);
    }

    #[test]
    fn sort_is_superlinear() {
        assert!(m().sort(2000.0) > 2.0 * m().sort(1000.0));
        // Degenerate inputs do not produce NaN/negative costs.
        assert!(m().sort(0.0) >= 0.0);
        assert!(m().sort(1.0) >= 0.0);
    }
}
