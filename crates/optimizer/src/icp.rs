//! The *incomplete plan* (ICP): join order + join methods of a left-deep tree.
//!
//! Section III of the paper: "We refer to such a tree structure containing
//! only the join order and join methods as the incomplete plan ICP." The
//! planner mutates ICPs; `pg_hint_plan`-style steering turns an ICP back into
//! a complete plan.
//!
//! A left-deep tree over `n` relations is fully described by
//! * `order` — the leaf tables bottom-up: `order[0]` is the paper's `T1`
//!   (deepest left leaf), `order[1]` is `T2` (deepest right leaf), and
//!   `order[k]` (k ≥ 2) is `T(k+1)`, the right input of join `O(k-1)`;
//! * `methods` — join methods bottom-up: `methods[0]` is `O1`, etc.

use foss_common::{fx_hash_one, ByteReader, ByteWriter, Codec, FossError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical join methods available in the expert engine (`Op` in the paper,
/// `|Op| = 3` as in PostgreSQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinMethod {
    /// Build a hash table on the inner side, probe with the outer.
    Hash,
    /// Sort both sides (unless already sorted) and merge.
    Merge,
    /// For each outer row scan (or index-probe) the inner side.
    NestLoop,
}

/// All join methods, in the fixed encoding order used by the action space.
pub const ALL_JOIN_METHODS: [JoinMethod; 3] =
    [JoinMethod::Hash, JoinMethod::Merge, JoinMethod::NestLoop];

impl JoinMethod {
    /// Stable index of this method inside [`ALL_JOIN_METHODS`].
    pub fn index(self) -> usize {
        match self {
            JoinMethod::Hash => 0,
            JoinMethod::Merge => 1,
            JoinMethod::NestLoop => 2,
        }
    }

    /// Inverse of [`JoinMethod::index`].
    pub fn from_index(i: usize) -> Option<Self> {
        ALL_JOIN_METHODS.get(i).copied()
    }
}

impl fmt::Display for JoinMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinMethod::Hash => "HashJoin",
            JoinMethod::Merge => "MergeJoin",
            JoinMethod::NestLoop => "NestLoop",
        };
        f.write_str(s)
    }
}

/// Incomplete plan: left-deep join order + join methods.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Icp {
    /// Relation indexes (into `Query::relations`) in bottom-up leaf order.
    pub order: Vec<usize>,
    /// Join methods bottom-up; `methods.len() == order.len() - 1`.
    pub methods: Vec<JoinMethod>,
}

impl Icp {
    /// Construct, validating the shape invariants.
    pub fn new(order: Vec<usize>, methods: Vec<JoinMethod>) -> Result<Self> {
        if order.is_empty() {
            return Err(FossError::InvalidPlan("ICP with no relations".into()));
        }
        if methods.len() + 1 != order.len() {
            return Err(FossError::InvalidPlan(format!(
                "ICP has {} leaves but {} join methods",
                order.len(),
                methods.len()
            )));
        }
        let mut seen = vec![false; order.len()];
        for &r in &order {
            if r >= order.len() || seen[r] {
                return Err(FossError::InvalidPlan(format!(
                    "ICP order is not a permutation: {:?}",
                    order
                )));
            }
            seen[r] = true;
        }
        Ok(Self { order, methods })
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.order.len()
    }

    /// Number of joins (`n - 1`).
    pub fn join_count(&self) -> usize {
        self.methods.len()
    }

    /// The paper's `Swap(Tl, Tr)`: exchange the leaf tables at 1-based
    /// positions `l` and `r` (labels `T_l`, `T_r`).
    pub fn swap(&mut self, l: usize, r: usize) -> Result<()> {
        let n = self.order.len();
        if l == 0 || r == 0 || l > n || r > n || l == r {
            return Err(FossError::InvalidAction(format!(
                "Swap(T{l}, T{r}) out of range (n={n})"
            )));
        }
        self.order.swap(l - 1, r - 1);
        Ok(())
    }

    /// The paper's `Override(Oi, Op_j)`: set join `O_i` (1-based, bottom-up)
    /// to the `j`-th join method (1-based index into [`ALL_JOIN_METHODS`]).
    pub fn override_method(&mut self, i: usize, j: usize) -> Result<()> {
        if i == 0 || i > self.methods.len() {
            return Err(FossError::InvalidAction(format!(
                "Override(O{i}, _) out of range (joins={})",
                self.methods.len()
            )));
        }
        let m = JoinMethod::from_index(
            j.checked_sub(1)
                .ok_or_else(|| FossError::InvalidAction("join method index is 1-based".into()))?,
        )
        .ok_or_else(|| FossError::InvalidAction(format!("no join method #{j}")))?;
        self.methods[i - 1] = m;
        Ok(())
    }

    /// Leaf positions (1-based labels `T_k`) adjacent to join `O_i`:
    /// `O_1` joins `T_1, T_2`; `O_i` (i ≥ 2) has right leaf `T_{i+1}`.
    pub fn leaves_under_join(i: usize) -> (Option<usize>, usize) {
        if i == 1 {
            (Some(1), 2)
        } else {
            (None, i + 1)
        }
    }

    /// The join `O_i` that is the *parent* of leaf `T_k` (1-based): `T_1` and
    /// `T_2` hang under `O_1`; `T_k` (k ≥ 3) hangs under `O_{k-1}`.
    pub fn parent_join_of_leaf(k: usize) -> usize {
        if k <= 2 {
            1
        } else {
            k - 1
        }
    }

    /// Stable fingerprint for caches and episode-buffer membership tests.
    pub fn fingerprint(&self) -> u64 {
        fx_hash_one(&(&self.order, &self.methods))
    }

    /// Minimum number of Swap/Override steps to reach `self` from `from`.
    ///
    /// Used by the paper's penalty term `minsteps(ICP)`:
    /// * swaps are transpositions, so the minimum swap count is
    ///   `n − cycles(π)` where `π` maps `from`'s leaf slots to `self`'s;
    /// * each join slot whose method differs needs exactly one Override.
    pub fn min_steps_from(&self, from: &Icp) -> usize {
        debug_assert_eq!(self.order.len(), from.order.len());
        let n = self.order.len();
        // Map relation -> slot in `self`, then express π over slots.
        let mut slot_of = vec![0usize; n];
        for (slot, &rel) in self.order.iter().enumerate() {
            slot_of[rel] = slot;
        }
        let perm: Vec<usize> = from.order.iter().map(|&rel| slot_of[rel]).collect();
        let mut seen = vec![false; n];
        let mut cycles = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            cycles += 1;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = perm[cur];
            }
        }
        let swaps = n - cycles;
        let overrides = self
            .methods
            .iter()
            .zip(&from.methods)
            .filter(|(a, b)| a != b)
            .count();
        swaps + overrides
    }
}

impl Codec for JoinMethod {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.index() as u8);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let i = r.get_u8()? as usize;
        JoinMethod::from_index(i)
            .ok_or_else(|| FossError::Serde(format!("invalid join-method tag {i}")))
    }
}

impl fmt::Display for Icp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "order={:?} methods=[", self.order)?;
        for (i, m) in self.methods.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icp4() -> Icp {
        Icp::new(
            vec![0, 1, 2, 3],
            vec![JoinMethod::Hash, JoinMethod::Merge, JoinMethod::NestLoop],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Icp::new(vec![], vec![]).is_err());
        assert!(Icp::new(vec![0, 1], vec![]).is_err());
        assert!(Icp::new(vec![0, 0], vec![JoinMethod::Hash]).is_err());
        assert!(Icp::new(vec![0, 2], vec![JoinMethod::Hash]).is_err());
        assert!(Icp::new(vec![0, 1], vec![JoinMethod::Hash]).is_ok());
    }

    #[test]
    fn swap_uses_one_based_labels() {
        let mut icp = icp4();
        icp.swap(1, 4).unwrap();
        assert_eq!(icp.order, vec![3, 1, 2, 0]);
        assert!(icp.swap(0, 1).is_err());
        assert!(icp.swap(1, 1).is_err());
        assert!(icp.swap(1, 5).is_err());
    }

    #[test]
    fn override_sets_method() {
        let mut icp = icp4();
        icp.override_method(2, 3).unwrap();
        assert_eq!(icp.methods[1], JoinMethod::NestLoop);
        assert!(icp.override_method(0, 1).is_err());
        assert!(icp.override_method(4, 1).is_err());
        assert!(icp.override_method(1, 4).is_err());
        assert!(icp.override_method(1, 0).is_err());
    }

    #[test]
    fn parent_join_mapping() {
        assert_eq!(Icp::parent_join_of_leaf(1), 1);
        assert_eq!(Icp::parent_join_of_leaf(2), 1);
        assert_eq!(Icp::parent_join_of_leaf(3), 2);
        assert_eq!(Icp::parent_join_of_leaf(5), 4);
        assert_eq!(Icp::leaves_under_join(1), (Some(1), 2));
        assert_eq!(Icp::leaves_under_join(3), (None, 4));
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let a = icp4();
        let mut b = icp4();
        b.override_method(1, 2).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), icp4().fingerprint());
    }

    #[test]
    fn min_steps_identity_is_zero() {
        let a = icp4();
        assert_eq!(a.min_steps_from(&a), 0);
    }

    #[test]
    fn min_steps_counts_transpositions_and_overrides() {
        let base = icp4();
        let mut one_swap = base.clone();
        one_swap.swap(1, 2).unwrap();
        assert_eq!(one_swap.min_steps_from(&base), 1);

        // A 3-cycle needs two transpositions.
        let mut cycle = base.clone();
        cycle.order = vec![1, 2, 0, 3];
        assert_eq!(cycle.min_steps_from(&base), 2);

        let mut mixed = one_swap.clone();
        mixed.override_method(3, 1).unwrap();
        assert_eq!(mixed.min_steps_from(&base), 2);
    }

    #[test]
    fn min_steps_is_symmetric() {
        let base = icp4();
        let mut other = base.clone();
        other.swap(1, 3).unwrap();
        other.swap(2, 4).unwrap();
        other.override_method(1, 3).unwrap();
        assert_eq!(other.min_steps_from(&base), base.min_steps_from(&other));
        assert_eq!(other.min_steps_from(&base), 3);
    }

    #[test]
    fn repeated_override_is_not_shorter() {
        // Overriding the same join twice still differs from base by one step:
        // the penalty mechanism relies on exactly this.
        let base = icp4();
        let mut p = base.clone();
        p.override_method(1, 2).unwrap();
        p.override_method(1, 3).unwrap();
        assert_eq!(p.min_steps_from(&base), 1);
    }

    #[test]
    fn method_index_roundtrip() {
        for m in ALL_JOIN_METHODS {
            assert_eq!(JoinMethod::from_index(m.index()), Some(m));
        }
        assert_eq!(JoinMethod::from_index(3), None);
    }
}
