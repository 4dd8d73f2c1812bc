//! Physical plans (the paper's *complete plan*, `CP`).

use foss_common::{fx_hash_one, ByteReader, ByteWriter, Codec, FossError, Result};
use foss_query::JoinEdge;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::icp::{Icp, JoinMethod};

/// How a base relation is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPath {
    /// Full scan with predicate filtering.
    SeqScan,
    /// Index scan driven by a scan predicate on `column`.
    IndexScan {
        /// The indexed column used for the lookup.
        column: usize,
    },
}

/// A node of a physical plan tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanNode {
    /// Leaf: read one relation.
    Scan {
        /// Index into `Query::relations`.
        relation: usize,
        /// Chosen access path.
        access: AccessPath,
        /// Optimizer's estimated output rows.
        est_rows: f64,
        /// Optimizer's estimated cumulative cost.
        est_cost: f64,
    },
    /// Inner node: join two subtrees.
    Join {
        /// Physical join method.
        method: JoinMethod,
        /// Outer (left) input.
        left: Box<PlanNode>,
        /// Inner (right) input; a `Scan` in left-deep plans.
        right: Box<PlanNode>,
        /// Equi-join conditions, oriented left→right.
        edges: Vec<JoinEdge>,
        /// When true, the nested-loop inner side is probed through an index
        /// on `edges[0].right_column` instead of rescanned.
        index_nl: bool,
        /// Optimizer's estimated output rows.
        est_rows: f64,
        /// Optimizer's estimated cumulative cost.
        est_cost: f64,
    },
}

impl PlanNode {
    /// Estimated output rows of this node.
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanNode::Scan { est_rows, .. } | PlanNode::Join { est_rows, .. } => *est_rows,
        }
    }

    /// Estimated cumulative cost of this node.
    pub fn est_cost(&self) -> f64 {
        match self {
            PlanNode::Scan { est_cost, .. } | PlanNode::Join { est_cost, .. } => *est_cost,
        }
    }

    /// Height: longest downward path to a leaf (leaves have height 0); the
    /// node structural feature used by the paper's plan encoding.
    pub fn height(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 0,
            PlanNode::Join { left, right, .. } => 1 + left.height().max(right.height()),
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }
}

/// A complete physical plan for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalPlan {
    /// Root node.
    pub root: PlanNode,
}

impl PhysicalPlan {
    /// Estimated total cost.
    pub fn est_cost(&self) -> f64 {
        self.root.est_cost()
    }

    /// Estimated result rows.
    pub fn est_rows(&self) -> f64 {
        self.root.est_rows()
    }

    /// Extract the incomplete plan (join order + methods) from a left-deep
    /// plan — the paper's `Extract(CP)` (Algorithm 1, line 3).
    pub fn extract_icp(&self) -> Result<Icp> {
        let mut order = Vec::new();
        let mut methods = Vec::new();
        collect_left_deep(&self.root, &mut order, &mut methods)?;
        Icp::new(order, methods)
    }

    /// True when the plan is left-deep (every right child is a scan).
    pub fn is_left_deep(&self) -> bool {
        fn check(node: &PlanNode) -> bool {
            match node {
                PlanNode::Scan { .. } => true,
                PlanNode::Join { left, right, .. } => {
                    matches!(**right, PlanNode::Scan { .. }) && check(left)
                }
            }
        }
        check(&self.root)
    }

    /// Stable fingerprint over structure + methods + access paths.
    pub fn fingerprint(&self) -> u64 {
        fn feed(node: &PlanNode, acc: &mut Vec<u64>) {
            match node {
                PlanNode::Scan {
                    relation, access, ..
                } => {
                    acc.push(0x5ca4);
                    acc.push(*relation as u64);
                    acc.push(match access {
                        AccessPath::SeqScan => u64::MAX,
                        AccessPath::IndexScan { column } => *column as u64,
                    });
                }
                PlanNode::Join {
                    method,
                    left,
                    right,
                    index_nl,
                    ..
                } => {
                    acc.push(0x101a);
                    acc.push(method.index() as u64);
                    acc.push(*index_nl as u64);
                    feed(left, acc);
                    feed(right, acc);
                }
            }
        }
        let mut acc = Vec::with_capacity(self.root.node_count() * 3);
        feed(&self.root, &mut acc);
        fx_hash_one(&acc)
    }

    /// Pretty-print as an `EXPLAIN`-style tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        fn walk(node: &PlanNode, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match node {
                PlanNode::Scan {
                    relation,
                    access,
                    est_rows,
                    est_cost,
                } => {
                    let a = match access {
                        AccessPath::SeqScan => "SeqScan".to_string(),
                        AccessPath::IndexScan { column } => format!("IndexScan(c{column})"),
                    };
                    out.push_str(&format!(
                        "{pad}{a} rel={relation} (rows={est_rows:.0} cost={est_cost:.0})\n"
                    ));
                }
                PlanNode::Join {
                    method,
                    left,
                    right,
                    index_nl,
                    est_rows,
                    est_cost,
                    ..
                } => {
                    let idx = if *index_nl { " [indexed]" } else { "" };
                    out.push_str(&format!(
                        "{pad}{method}{idx} (rows={est_rows:.0} cost={est_cost:.0})\n"
                    ));
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
            }
        }
        walk(&self.root, 0, &mut out);
        out
    }
}

fn collect_left_deep(
    node: &PlanNode,
    order: &mut Vec<usize>,
    methods: &mut Vec<JoinMethod>,
) -> Result<()> {
    match node {
        PlanNode::Scan { relation, .. } => {
            order.push(*relation);
            Ok(())
        }
        PlanNode::Join {
            method,
            left,
            right,
            ..
        } => {
            collect_left_deep(left, order, methods)?;
            match **right {
                PlanNode::Scan { relation, .. } => order.push(relation),
                PlanNode::Join { .. } => {
                    return Err(FossError::InvalidPlan(
                        "extract_icp requires a left-deep plan".into(),
                    ))
                }
            }
            methods.push(*method);
            Ok(())
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

impl Codec for AccessPath {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            AccessPath::SeqScan => w.put_u8(0),
            AccessPath::IndexScan { column } => {
                w.put_u8(1);
                w.put_usize(*column);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(AccessPath::SeqScan),
            1 => Ok(AccessPath::IndexScan {
                column: r.get_usize()?,
            }),
            other => Err(FossError::Serde(format!("invalid access-path tag {other}"))),
        }
    }
}

impl Codec for PlanNode {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            PlanNode::Scan {
                relation,
                access,
                est_rows,
                est_cost,
            } => {
                w.put_u8(0);
                w.put_usize(*relation);
                access.encode(w);
                w.put_f64(*est_rows);
                w.put_f64(*est_cost);
            }
            PlanNode::Join {
                method,
                left,
                right,
                edges,
                index_nl,
                est_rows,
                est_cost,
            } => {
                w.put_u8(1);
                method.encode(w);
                left.encode(w);
                right.encode(w);
                edges.encode(w);
                w.put_bool(*index_nl);
                w.put_f64(*est_rows);
                w.put_f64(*est_cost);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(PlanNode::Scan {
                relation: r.get_usize()?,
                access: AccessPath::decode(r)?,
                est_rows: r.get_f64()?,
                est_cost: r.get_f64()?,
            }),
            1 => Ok(PlanNode::Join {
                method: JoinMethod::decode(r)?,
                left: Box::new(PlanNode::decode(r)?),
                right: Box::new(PlanNode::decode(r)?),
                edges: Vec::decode(r)?,
                index_nl: r.get_bool()?,
                est_rows: r.get_f64()?,
                est_cost: r.get_f64()?,
            }),
            other => Err(FossError::Serde(format!("invalid plan-node tag {other}"))),
        }
    }
}

impl Codec for PhysicalPlan {
    fn encode(&self, w: &mut ByteWriter) {
        self.root.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            root: PlanNode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: usize) -> PlanNode {
        PlanNode::Scan {
            relation: rel,
            access: AccessPath::SeqScan,
            est_rows: 10.0,
            est_cost: 10.0,
        }
    }

    fn join(method: JoinMethod, left: PlanNode, right: PlanNode) -> PlanNode {
        PlanNode::Join {
            method,
            left: Box::new(left),
            right: Box::new(right),
            edges: vec![],
            index_nl: false,
            est_rows: 100.0,
            est_cost: 120.0,
        }
    }

    fn left_deep3() -> PhysicalPlan {
        PhysicalPlan {
            root: join(
                JoinMethod::Merge,
                join(JoinMethod::Hash, scan(2), scan(0)),
                scan(1),
            ),
        }
    }

    #[test]
    fn extract_icp_bottom_up() {
        let icp = left_deep3().extract_icp().unwrap();
        assert_eq!(icp.order, vec![2, 0, 1]);
        assert_eq!(icp.methods, vec![JoinMethod::Hash, JoinMethod::Merge]);
    }

    #[test]
    fn bushy_plan_rejected_by_extract() {
        let bushy = PhysicalPlan {
            root: join(
                JoinMethod::Hash,
                scan(0),
                join(JoinMethod::Hash, scan(1), scan(2)),
            ),
        };
        assert!(!bushy.is_left_deep());
        assert!(bushy.extract_icp().is_err());
        assert!(left_deep3().is_left_deep());
    }

    #[test]
    fn height_and_node_count() {
        let p = left_deep3();
        assert_eq!(p.root.height(), 2);
        assert_eq!(p.root.node_count(), 5);
        assert_eq!(scan(0).height(), 0);
    }

    #[test]
    fn fingerprint_sensitivity() {
        let a = left_deep3();
        let mut b = left_deep3();
        if let PlanNode::Join { method, .. } = &mut b.root {
            *method = JoinMethod::NestLoop;
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), left_deep3().fingerprint());
    }

    #[test]
    fn explain_contains_tree() {
        let text = left_deep3().explain();
        assert!(text.contains("MergeJoin"));
        assert!(text.contains("HashJoin"));
        assert!(text.contains("SeqScan rel=2"));
    }
}
