//! The planner's action space (§III Action).
//!
//! Two action families over the incomplete plan:
//!
//! * `Swap(T_l, T_r)` — exchange the leaf tables at 1-based positions `l < r`;
//!   there are `Is = n(n−1)/2` of them;
//! * `Override(O_i, Op_j)` — set join `O_i` to the `j`-th method; there are
//!   `Io = |Op|·(n−1)` of them.
//!
//! Actions are encoded as one contiguous integer range so one policy head
//! covers queries of any size: the space is laid out for the workload's
//! maximum relation count `max_n`, and the **validity mask** switches off
//! whatever a specific query/state does not admit:
//!
//! * swaps touching positions beyond the query's `n`,
//! * swaps that would disconnect the join prefix (cross products — the
//!   paper's "Swap(T1, T5) is considered an illegal action"),
//! * overrides that restate the current method (useless steps),
//! * after a `Swap`, everything except `Override` on the parent join of one
//!   of the swapped leaves (the paper's `LimitSpace` heuristic).
//!
//! The paper packs the same two families with a different (equivalent)
//! integer bijection; the layout here is lexicographic, which is easier to
//! verify — see the round-trip tests.

use foss_optimizer::{Icp, ALL_JOIN_METHODS};
use foss_query::Query;
use serde::{Deserialize, Serialize};

/// A decoded planner action (1-based labels, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Exchange leaf tables `T_l` and `T_r` (`l < r`).
    Swap {
        /// Lower position label.
        l: usize,
        /// Higher position label.
        r: usize,
    },
    /// Set join `O_i` to method `Op_j` (`j` is 1-based into
    /// [`ALL_JOIN_METHODS`]).
    Override {
        /// Join label (1-based, bottom-up).
        i: usize,
        /// Method index (1-based).
        j: usize,
    },
}

/// The global action space for a workload whose largest query joins
/// `max_n` relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSpace {
    max_n: usize,
}

impl ActionSpace {
    /// Space sized for queries of up to `max_n` relations.
    pub fn new(max_n: usize) -> Self {
        assert!(max_n >= 2, "action space needs at least two relations");
        Self { max_n }
    }

    /// `Is` — number of swap actions.
    pub fn swap_count(&self) -> usize {
        self.max_n * (self.max_n - 1) / 2
    }

    /// `Io` — number of override actions.
    pub fn override_count(&self) -> usize {
        ALL_JOIN_METHODS.len() * (self.max_n - 1)
    }

    /// Total number of actions (`Is + Io`).
    pub fn len(&self) -> usize {
        self.swap_count() + self.override_count()
    }

    /// Action spaces are never empty (`max_n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decode a 0-based action index.
    pub fn decode(&self, a: usize) -> Action {
        assert!(a < self.len(), "action {a} out of range");
        let is = self.swap_count();
        if a < is {
            // Lexicographic pair enumeration: (1,2), (1,3), …, (1,n), (2,3)…
            let mut rem = a;
            let mut l = 1;
            loop {
                let pairs_with_l = self.max_n - l;
                if rem < pairs_with_l {
                    return Action::Swap { l, r: l + 1 + rem };
                }
                rem -= pairs_with_l;
                l += 1;
            }
        } else {
            let o = a - is;
            let m = ALL_JOIN_METHODS.len();
            Action::Override {
                i: o / m + 1,
                j: o % m + 1,
            }
        }
    }

    /// Encode an action back to its 0-based index (inverse of [`decode`]).
    ///
    /// [`decode`]: ActionSpace::decode
    pub fn encode(&self, action: Action) -> usize {
        match action {
            Action::Swap { l, r } => {
                assert!(l < r && r <= self.max_n, "bad swap ({l},{r})");
                // Offset of the block for `l`, then the position of `r`.
                let before: usize = (1..l).map(|x| self.max_n - x).sum();
                before + (r - l - 1)
            }
            Action::Override { i, j } => {
                let m = ALL_JOIN_METHODS.len();
                assert!(
                    i >= 1 && i < self.max_n && j >= 1 && j <= m,
                    "bad override ({i},{j})"
                );
                self.swap_count() + (i - 1) * m + (j - 1)
            }
        }
    }

    /// Apply a decoded action to an ICP in place.
    pub fn apply(&self, action: Action, icp: &mut Icp) -> foss_common::Result<()> {
        match action {
            Action::Swap { l, r } => icp.swap(l, r),
            Action::Override { i, j } => icp.override_method(i, j),
        }
    }

    /// Compute the validity mask for `query` in state `icp`.
    ///
    /// `last_swap` is `Some((l, r))` when the previous action in this episode
    /// was `Swap(T_l, T_r)` — the `LimitSpace` restriction then applies.
    /// A query wider than the space has no action in it: its mask is all
    /// `false`, so the episode ends and the expert plan stands.
    pub fn mask(&self, query: &Query, icp: &Icp, last_swap: Option<(usize, usize)>) -> Vec<bool> {
        let n = icp.relation_count();
        let mut mask = vec![false; self.len()];
        if n > self.max_n {
            return mask;
        }

        if let Some((l, r)) = last_swap {
            // Only overrides of the parent joins of the swapped leaves.
            for leaf in [l, r] {
                let i = Icp::parent_join_of_leaf(leaf);
                if i <= n.saturating_sub(1) {
                    for j in 1..=ALL_JOIN_METHODS.len() {
                        if ALL_JOIN_METHODS[j - 1] != icp.methods[i - 1] {
                            mask[self.encode(Action::Override { i, j })] = true;
                        }
                    }
                }
            }
            return mask;
        }

        // Swap actions: stay within n, keep the join prefix connected.
        for l in 1..n {
            for r in (l + 1)..=n {
                let mut cand = icp.clone();
                cand.order.swap(l - 1, r - 1);
                if order_is_connected(query, &cand.order) {
                    mask[self.encode(Action::Swap { l, r })] = true;
                }
            }
        }
        // Override actions: any join, any *different* method.
        for i in 1..n {
            for j in 1..=ALL_JOIN_METHODS.len() {
                if ALL_JOIN_METHODS[j - 1] != icp.methods[i - 1] {
                    mask[self.encode(Action::Override { i, j })] = true;
                }
            }
        }
        mask
    }
}

/// True when the left-deep order never requires a cross product: every leaf
/// after the first shares at least one join edge with the prefix before it.
pub fn order_is_connected(query: &Query, order: &[usize]) -> bool {
    for k in 1..order.len() {
        if !query.edges_between_set(&order[..k], order[k]).is_empty() {
            continue;
        }
        return false;
    }
    true
}

impl foss_common::Codec for ActionSpace {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        w.put_usize(self.max_n);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        let max_n = r.get_usize()?;
        if max_n < 2 {
            return Err(foss_common::FossError::Serde(format!(
                "decoded action space invalid: max_n={max_n}"
            )));
        }
        Ok(Self { max_n })
    }
}

/// Extract `(l, r)` if the action was a swap (for `LimitSpace` tracking).
pub fn as_swap(action: Action) -> Option<(usize, usize)> {
    match action {
        Action::Swap { l, r } => Some((l, r)),
        Action::Override { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_common::QueryId;
    use foss_optimizer::JoinMethod;
    use foss_query::QueryBuilder;

    /// Chain query a—b—c—d (edges only between neighbours).
    fn chain4() -> Query {
        let mut s = Schema::new();
        for name in ["a", "b", "c", "d"] {
            s.add_table(TableDef {
                name: name.into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("fk")],
            })
            .unwrap();
        }
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let a = qb.relation(s.table_id("a").unwrap(), "a");
        let b = qb.relation(s.table_id("b").unwrap(), "b");
        let c = qb.relation(s.table_id("c").unwrap(), "c");
        let d = qb.relation(s.table_id("d").unwrap(), "d");
        qb.join(a, 0, b, 1).join(b, 0, c, 1).join(c, 0, d, 1);
        qb.build(&s).unwrap()
    }

    fn icp4() -> Icp {
        Icp::new(vec![0, 1, 2, 3], vec![JoinMethod::Hash; 3]).unwrap()
    }

    #[test]
    fn counts_match_paper_formulas() {
        let sp = ActionSpace::new(8);
        assert_eq!(sp.swap_count(), 8 * 7 / 2);
        assert_eq!(sp.override_count(), 3 * 7);
        assert_eq!(sp.len(), 28 + 21);
    }

    #[test]
    fn encode_decode_roundtrip_every_action() {
        let sp = ActionSpace::new(7);
        for a in 0..sp.len() {
            let action = sp.decode(a);
            assert_eq!(sp.encode(action), a, "roundtrip failed for {action:?}");
        }
    }

    #[test]
    fn decode_layout_is_lexicographic() {
        let sp = ActionSpace::new(4);
        assert_eq!(sp.decode(0), Action::Swap { l: 1, r: 2 });
        assert_eq!(sp.decode(1), Action::Swap { l: 1, r: 3 });
        assert_eq!(sp.decode(2), Action::Swap { l: 1, r: 4 });
        assert_eq!(sp.decode(3), Action::Swap { l: 2, r: 3 });
        assert_eq!(sp.decode(5), Action::Swap { l: 3, r: 4 });
        assert_eq!(sp.decode(6), Action::Override { i: 1, j: 1 });
        assert_eq!(sp.decode(8), Action::Override { i: 1, j: 3 });
        assert_eq!(sp.decode(9), Action::Override { i: 2, j: 1 });
    }

    #[test]
    fn mask_blocks_disconnecting_swaps() {
        let q = chain4();
        let sp = ActionSpace::new(4);
        let mask = sp.mask(&q, &icp4(), None);
        // Swapping T1 (a) and T4 (d): order d,b,c,a — d has no edge to b.
        assert!(!mask[sp.encode(Action::Swap { l: 1, r: 4 })]);
        // Swapping T1 and T2 (a, b): order b,a,c,d stays connected.
        assert!(mask[sp.encode(Action::Swap { l: 1, r: 2 })]);
        // Swapping T3 and T4 (c, d): order a,b,d,c — d joins prefix via c?
        // d's only edge is to c which is not yet joined → disconnected.
        assert!(!mask[sp.encode(Action::Swap { l: 3, r: 4 })]);
    }

    #[test]
    fn mask_blocks_same_method_overrides() {
        let q = chain4();
        let sp = ActionSpace::new(4);
        let mask = sp.mask(&q, &icp4(), None);
        // Current method everywhere is Hash (j = 1).
        for i in 1..=3 {
            assert!(!mask[sp.encode(Action::Override { i, j: 1 })]);
            assert!(mask[sp.encode(Action::Override { i, j: 2 })]);
            assert!(mask[sp.encode(Action::Override { i, j: 3 })]);
        }
    }

    #[test]
    fn limit_space_after_swap() {
        let q = chain4();
        let sp = ActionSpace::new(4);
        // Last action swapped T2 and T3: parents are O1 and O2.
        let mask = sp.mask(&q, &icp4(), Some((2, 3)));
        let legal: Vec<Action> = (0..sp.len())
            .filter(|&a| mask[a])
            .map(|a| sp.decode(a))
            .collect();
        assert!(!legal.is_empty());
        for action in &legal {
            match action {
                Action::Override { i, .. } => assert!(*i == 1 || *i == 2, "got {action:?}"),
                other => panic!("swap allowed under LimitSpace: {other:?}"),
            }
        }
        // Overrides on O3 are not allowed.
        assert!(!mask[sp.encode(Action::Override { i: 3, j: 2 })]);
    }

    #[test]
    fn mask_always_has_a_legal_action() {
        let q = chain4();
        let sp = ActionSpace::new(6); // larger than the query
        let mask = sp.mask(&q, &icp4(), None);
        assert!(mask.iter().any(|&m| m));
        // Everything referencing positions 5, 6 must be masked out.
        assert!(!mask[sp.encode(Action::Swap { l: 1, r: 6 })]);
        assert!(!mask[sp.encode(Action::Override { i: 5, j: 2 })]);
    }

    #[test]
    fn query_wider_than_the_space_has_no_action() {
        let q = chain4();
        let sp = ActionSpace::new(3);
        assert!(sp.mask(&q, &icp4(), None).iter().all(|&m| !m));
        assert!(sp.mask(&q, &icp4(), Some((1, 2))).iter().all(|&m| !m));
    }

    #[test]
    fn apply_mutates_icp() {
        let sp = ActionSpace::new(4);
        let mut icp = icp4();
        sp.apply(Action::Swap { l: 1, r: 2 }, &mut icp).unwrap();
        assert_eq!(icp.order, vec![1, 0, 2, 3]);
        sp.apply(Action::Override { i: 2, j: 3 }, &mut icp).unwrap();
        assert_eq!(icp.methods[1], JoinMethod::NestLoop);
    }

    #[test]
    fn order_connectivity_detects_cross_products() {
        let q = chain4();
        assert!(order_is_connected(&q, &[0, 1, 2, 3]));
        assert!(order_is_connected(&q, &[1, 0, 2, 3]));
        assert!(order_is_connected(&q, &[1, 2, 3, 0]));
        assert!(!order_is_connected(&q, &[0, 2, 1, 3]));
        assert!(!order_is_connected(&q, &[0, 3, 1, 2]));
    }
}
