//! Plan encoding (§IV-A) — QueryFormer-style node features plus the two
//! structural features the paper adds, and the reachability attention mask.
//!
//! Per plan node we extract categorical features (embedded separately by the
//! state network):
//!
//! * **operator** — seq scan / index scan / hash / merge / nested loop /
//!   index nested loop;
//! * **table** — base table id for scans (a shared "none" id for joins);
//! * **selectivity bucket** — how much the scan's predicates filter its
//!   table (the paper encodes predicate features; on our workloads predicate
//!   effect is fully captured by filter selectivity);
//! * **cardinality bucket** — `log2` of the optimizer's estimated rows;
//! * **height** — longest downward path to a leaf;
//! * **structure type** — left / right / no-siblings / root (labels 0–3).
//!
//! The attention mask only lets *mutually reachable* nodes (ancestor /
//! descendant pairs) attend to each other, replacing QueryFormer's
//! height-difference bias exactly as §IV-A argues.

use foss_optimizer::{JoinMethod, PhysicalPlan, PlanNode};
use foss_query::Query;
use serde::{Deserialize, Serialize};

/// Operator vocabulary size (see `op_code`).
pub const OP_VOCAB: usize = 6;
/// Selectivity-bucket vocabulary: 0..=9 for scans, 10 = join node.
pub const SEL_VOCAB: usize = 11;
/// Cardinality bucket vocabulary (log2-rows, clamped).
pub const ROWS_VOCAB: usize = 30;
/// Height vocabulary (clamped).
pub const HEIGHT_VOCAB: usize = 32;
/// Structure-type vocabulary: left, right, no-siblings, root.
pub const STRUCT_VOCAB: usize = 4;

/// One plan, encoded for the state network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedPlan {
    /// Operator code per node.
    pub ops: Vec<usize>,
    /// Table id (+1; 0 = none) per node.
    pub tables: Vec<usize>,
    /// Selectivity bucket per node.
    pub sels: Vec<usize>,
    /// log2-cardinality bucket per node.
    pub rows: Vec<usize>,
    /// Height per node.
    pub heights: Vec<usize>,
    /// Structure type per node.
    pub structures: Vec<usize>,
    /// Reachability matrix (`true` = may attend).
    pub reach: Vec<Vec<bool>>,
    /// The paper's `Step(t) = t / maxsteps`.
    pub step: f32,
}

impl EncodedPlan {
    /// Number of encoded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the plan has no nodes (never produced by the encoder).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Encodes physical plans against a fixed schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEncoder {
    /// Number of base tables in the schema (embedding vocabulary is +1).
    pub table_count: usize,
    table_rows: Vec<u64>,
}

/// Stable operator code for a node.
fn op_code(node: &PlanNode) -> usize {
    match node {
        PlanNode::Scan { access, .. } => match access {
            foss_optimizer::AccessPath::SeqScan => 0,
            foss_optimizer::AccessPath::IndexScan { .. } => 1,
        },
        PlanNode::Join {
            method, index_nl, ..
        } => match (method, index_nl) {
            (JoinMethod::Hash, _) => 2,
            (JoinMethod::Merge, _) => 3,
            (JoinMethod::NestLoop, false) => 4,
            (JoinMethod::NestLoop, true) => 5,
        },
    }
}

impl PlanEncoder {
    /// Build an encoder; `table_rows[t]` is the row count of table `t`
    /// (used to bucket scan selectivities).
    pub fn new(table_count: usize, table_rows: Vec<u64>) -> Self {
        assert_eq!(table_count, table_rows.len());
        Self {
            table_count,
            table_rows,
        }
    }

    /// Row count per table, by which scan selectivities are bucketed.
    pub(crate) fn table_rows(&self) -> &[u64] {
        &self.table_rows
    }

    /// Table-id embedding vocabulary (`table_count + 1` for "none").
    pub fn table_vocab(&self) -> usize {
        self.table_count + 1
    }

    /// Encode `plan` at normalised step `step` (`t / maxsteps`).
    pub fn encode(&self, query: &Query, plan: &PhysicalPlan, step: f32) -> EncodedPlan {
        // Pre-order walk with parent tracking.
        let mut ops = Vec::new();
        let mut tables = Vec::new();
        let mut sels = Vec::new();
        let mut rows = Vec::new();
        let mut heights = Vec::new();
        let mut structures = Vec::new();
        let mut parents: Vec<Option<usize>> = Vec::new();

        // `pending` carries (node, parent index, structure label).
        let root_structure = match plan.root {
            PlanNode::Scan { .. } => 2, // single node: no siblings
            PlanNode::Join { .. } => 3, // root
        };
        let mut stack: Vec<(&PlanNode, Option<usize>, usize)> =
            vec![(&plan.root, None, root_structure)];
        while let Some((node, parent, structure)) = stack.pop() {
            let idx = ops.len();
            ops.push(op_code(node));
            heights.push(node.height().min(HEIGHT_VOCAB - 1));
            structures.push(structure);
            parents.push(parent);
            let est = node.est_rows().max(1.0);
            rows.push((est.log2().round() as usize).min(ROWS_VOCAB - 1));
            match node {
                PlanNode::Scan {
                    relation, est_rows, ..
                } => {
                    let table = query.relations[*relation].table.index();
                    tables.push(table + 1);
                    let total = self.table_rows[table].max(1) as f64;
                    let sel = (est_rows / total).clamp(1e-9, 1.0);
                    // Bucket by halvings: sel 1.0 → 0, 0.5 → 1, … clamped at 9.
                    let bucket = (-sel.log2()).floor().max(0.0) as usize;
                    sels.push(bucket.min(9));
                }
                PlanNode::Join { left, right, .. } => {
                    tables.push(0);
                    sels.push(10);
                    stack.push((right, Some(idx), 1));
                    stack.push((left, Some(idx), 0));
                }
            }
        }

        // Reachability: ancestor/descendant closure (nodes always reach
        // themselves).
        let n = ops.len();
        let mut reach = vec![vec![false; n]; n];
        for (i, first_parent) in parents.iter().enumerate() {
            reach[i][i] = true;
            let mut next = *first_parent;
            while let Some(p) = next {
                reach[i][p] = true;
                reach[p][i] = true;
                next = parents[p];
            }
        }

        EncodedPlan {
            ops,
            tables,
            sels,
            rows,
            heights,
            structures,
            reach,
            step,
        }
    }
}

impl foss_common::Codec for EncodedPlan {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        self.ops.encode(w);
        self.tables.encode(w);
        self.sels.encode(w);
        self.rows.encode(w);
        self.heights.encode(w);
        self.structures.encode(w);
        self.reach.encode(w);
        w.put_f32(self.step);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            ops: Vec::decode(r)?,
            tables: Vec::decode(r)?,
            sels: Vec::decode(r)?,
            rows: Vec::decode(r)?,
            heights: Vec::decode(r)?,
            structures: Vec::decode(r)?,
            reach: Vec::decode(r)?,
            step: r.get_f32()?,
        })
    }
}

impl foss_common::Codec for PlanEncoder {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        w.put_usize(self.table_count);
        self.table_rows.encode(w);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        let table_count = r.get_usize()?;
        let table_rows: Vec<u64> = Vec::decode(r)?;
        if table_rows.len() != table_count {
            return Err(foss_common::FossError::Serde(format!(
                "plan encoder table_rows has {} entries for {table_count} tables",
                table_rows.len()
            )));
        }
        Ok(Self {
            table_count,
            table_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef, TableStats};
    use foss_common::QueryId;
    use foss_optimizer::{CardinalityEstimator, CostModel, Icp, TraditionalOptimizer};
    use foss_query::{Predicate, QueryBuilder};
    use foss_storage::{Column, Table};
    use std::sync::Arc;

    fn setup() -> (TraditionalOptimizer, Query, PlanEncoder) {
        let mut schema = Schema::new();
        let mut stats = Vec::new();
        let mut rows_vec = Vec::new();
        for (name, rows) in [("a", 64usize), ("b", 1024), ("c", 256)] {
            schema
                .add_table(TableDef {
                    name: name.into(),
                    columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("fk")],
                })
                .unwrap();
            let ids: Vec<i64> = (0..rows as i64).collect();
            let fks: Vec<i64> = (0..rows as i64).map(|i| i % 64).collect();
            let t = Table::new(
                name,
                vec![
                    ("id".into(), Column::new(ids)),
                    ("fk".into(), Column::new(fks)),
                ],
            )
            .unwrap();
            stats.push(TableStats::analyze(&t, 16));
            rows_vec.push(rows as u64);
        }
        let schema = Arc::new(schema);
        let opt = TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(stats),
            CostModel::default(),
        );
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let a = qb.relation(schema.table_id("a").unwrap(), "a");
        let b = qb.relation(schema.table_id("b").unwrap(), "b");
        let c = qb.relation(schema.table_id("c").unwrap(), "c");
        qb.join(a, 0, b, 1).join(a, 0, c, 1);
        qb.predicate(
            b,
            Predicate::Range {
                column: 1,
                lo: 0,
                hi: 7,
            },
        );
        let q = qb.build(&schema).unwrap();
        let enc = PlanEncoder::new(3, rows_vec);
        (opt, q, enc)
    }

    #[test]
    fn encodes_all_nodes_with_consistent_shapes() {
        let (opt, q, enc) = setup();
        let plan = opt.optimize(&q).unwrap();
        let e = enc.encode(&q, &plan, 0.5);
        assert_eq!(e.len(), 5); // 3 scans + 2 joins
        assert_eq!(e.tables.len(), 5);
        assert_eq!(e.reach.len(), 5);
        assert!(e.reach.iter().all(|r| r.len() == 5));
        assert_eq!(e.step, 0.5);
        assert!(e.ops.iter().all(|&o| o < OP_VOCAB));
        assert!(e.sels.iter().all(|&s| s < SEL_VOCAB));
        assert!(e.rows.iter().all(|&r| r < ROWS_VOCAB));
        assert!(e.structures.iter().all(|&s| s < STRUCT_VOCAB));
    }

    #[test]
    fn root_and_leaf_structure_labels() {
        let (opt, q, enc) = setup();
        let plan = opt.optimize(&q).unwrap();
        let e = enc.encode(&q, &plan, 0.0);
        // Node 0 is the root (pre-order), labelled 3.
        assert_eq!(e.structures[0], 3);
        assert_eq!(e.heights[0], 2);
        // Exactly two left-children and two right-children below the root.
        let lefts = e.structures.iter().filter(|&&s| s == 0).count();
        let rights = e.structures.iter().filter(|&&s| s == 1).count();
        assert_eq!((lefts, rights), (2, 2));
    }

    #[test]
    fn selectivity_bucket_reflects_filter() {
        let (opt, q, enc) = setup();
        let plan = opt.optimize(&q).unwrap();
        let e = enc.encode(&q, &plan, 0.0);
        // b is filtered to ~1/8 of 1024 rows → bucket ≈ 3; a and c unfiltered
        // → bucket 0; joins → 10.
        let b_table = 2usize; // table id 1 (+1)
        let b_idx = e.tables.iter().position(|&t| t == b_table).unwrap();
        assert!((2..=4).contains(&e.sels[b_idx]), "bucket={}", e.sels[b_idx]);
        for i in 0..e.len() {
            if e.tables[i] == 0 {
                assert_eq!(e.sels[i], 10);
            }
        }
    }

    #[test]
    fn reachability_follows_ancestry() {
        let (opt, q, enc) = setup();
        let plan = opt.optimize(&q).unwrap();
        let e = enc.encode(&q, &plan, 0.0);
        // Root reaches everyone.
        assert!(e.reach[0].iter().all(|&b| b));
        // The two scans under the *bottom* join are both reachable from the
        // bottom join but NOT from each other... actually siblings share no
        // ancestor/descendant path, so reach must be false between them.
        // Find two scan nodes with the same parent height pattern: the two
        // deepest leaves are at indexes with height 0 and structures {0,1}
        // under the bottom join.
        let scans: Vec<usize> = (0..e.len()).filter(|&i| e.tables[i] != 0).collect();
        let mut sibling_pairs = 0;
        for &i in &scans {
            for &j in &scans {
                if i < j && !e.reach[i][j] {
                    sibling_pairs += 1;
                }
            }
        }
        assert!(sibling_pairs > 0, "some scans must be mutually unreachable");
        // Symmetry + self-reach.
        for i in 0..e.len() {
            assert!(e.reach[i][i]);
            for j in 0..e.len() {
                assert_eq!(e.reach[i][j], e.reach[j][i]);
            }
        }
    }

    #[test]
    fn different_icp_encode_differently() {
        let (opt, q, enc) = setup();
        let plan = opt.optimize(&q).unwrap();
        let icp = plan.extract_icp().unwrap();
        let mut other = icp.clone();
        other
            .override_method(1, 1 + (other.methods[0].index() + 1) % 3)
            .unwrap();
        let plan2 = opt.optimize_with_hint(&q, &other).unwrap();
        let e1 = enc.encode(&q, &plan, 0.0);
        let e2 = enc.encode(&q, &plan2, 0.0);
        assert_ne!(e1, e2);
        // Deterministic:
        assert_eq!(e1, enc.encode(&q, &plan, 0.0));
    }

    #[test]
    fn index_nl_gets_distinct_op_code() {
        let (opt, q, enc) = setup();
        let icp = Icp::new(
            vec![1, 0, 2],
            vec![
                foss_optimizer::JoinMethod::NestLoop,
                foss_optimizer::JoinMethod::Hash,
            ],
        )
        .unwrap();
        let plan = opt.optimize_with_hint(&q, &icp).unwrap();
        let e = enc.encode(&q, &plan, 0.0);
        assert!(
            e.ops.contains(&5),
            "expected an index-NL op code in {:?}",
            e.ops
        );
    }
}
