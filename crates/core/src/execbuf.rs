//! The execution buffer (§V-B, Fig. 3).
//!
//! Stores every plan FOSS has executed for real — original plans, validated
//! promising plans, randomly sampled candidates — keyed by query. From it we
//! derive:
//!
//! * AAM training pairs `{(CP_l, CP_r), Adv(CP_l, CP_r)}` labelled from true
//!   latencies, with double-timeout pairs filtered out (§V-B);
//! * the episode-bounty **reference set**: best plan, median better-than-
//!   original plan, and the original plan, with their reference bounties
//!   `refb_i = Adv_init(CP_ORI, CP_ref_i)`.

use foss_common::{FxHashMap, FxHashSet, QueryId};
use foss_optimizer::{Icp, PhysicalPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::aam::AamSample;
use crate::advantage::AdvantageScale;
use crate::encoding::EncodedPlan;

/// One query's labelling work: its executed plans and the chosen pair
/// indices into them.
type PairJob<'a> = (Vec<&'a ExecutedPlan>, Vec<(usize, usize)>);

/// One executed plan with its measured (work-unit) latency.
#[derive(Debug, Clone)]
pub struct ExecutedPlan {
    /// Incomplete plan that produced it.
    pub icp: Icp,
    /// Full physical plan.
    pub plan: PhysicalPlan,
    /// Encoding used for AAM training (step = the step it was produced at).
    pub encoded: EncodedPlan,
    /// Measured latency; for timed-out plans this is the budget (a lower
    /// bound on the true latency).
    pub latency: f64,
    /// Whether execution hit the dynamic timeout.
    pub timed_out: bool,
}

/// Per-query store of executed plans.
#[derive(Debug, Clone, Default)]
pub struct ExecutionBuffer {
    originals: FxHashMap<QueryId, ExecutedPlan>,
    plans: FxHashMap<QueryId, Vec<ExecutedPlan>>,
    seen: FxHashMap<QueryId, FxHashSet<u64>>,
}

impl ExecutionBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the original (expert) plan for a query.
    pub fn record_original(&mut self, qid: QueryId, executed: ExecutedPlan) {
        self.seen
            .entry(qid)
            .or_default()
            .insert(executed.icp.fingerprint());
        self.originals.insert(qid, executed);
    }

    /// Record an executed candidate; duplicates (same ICP) are dropped.
    /// Returns whether the plan was new.
    pub fn record(&mut self, qid: QueryId, executed: ExecutedPlan) -> bool {
        if !self
            .seen
            .entry(qid)
            .or_default()
            .insert(executed.icp.fingerprint())
        {
            return false;
        }
        self.plans.entry(qid).or_default().push(executed);
        true
    }

    /// The original plan's execution, if recorded.
    pub fn original(&self, qid: QueryId) -> Option<&ExecutedPlan> {
        self.originals.get(&qid)
    }

    /// Whether this exact ICP was already executed for `qid`.
    pub fn contains(&self, qid: QueryId, icp: &Icp) -> bool {
        self.seen
            .get(&qid)
            .is_some_and(|s| s.contains(&icp.fingerprint()))
    }

    /// Executed candidates (excluding the original) for `qid`.
    pub fn plans(&self, qid: QueryId) -> &[ExecutedPlan] {
        self.plans.get(&qid).map_or(&[], Vec::as_slice)
    }

    /// Fetch the recorded execution of `icp` for `qid`, if any (checks the
    /// original too).
    pub fn get(&self, qid: QueryId, icp: &Icp) -> Option<&ExecutedPlan> {
        let fp = icp.fingerprint();
        if let Some(orig) = self.originals.get(&qid) {
            if orig.icp.fingerprint() == fp {
                return Some(orig);
            }
        }
        self.plans(qid).iter().find(|p| p.icp.fingerprint() == fp)
    }

    /// All queries with at least one recorded plan or original.
    pub fn queries(&self) -> Vec<QueryId> {
        let mut q: Vec<QueryId> = self.originals.keys().copied().collect();
        for k in self.plans.keys() {
            if !q.contains(k) {
                q.push(*k);
            }
        }
        q.sort_by_key(|q| q.0);
        q
    }

    /// Total executed plans (candidates + originals).
    pub fn total_plans(&self) -> usize {
        self.originals.len() + self.plans.values().map(Vec::len).sum::<usize>()
    }

    /// Best (lowest-latency) non-timed-out executed plan for `qid`,
    /// considering the original too.
    pub fn best(&self, qid: QueryId) -> Option<&ExecutedPlan> {
        let cands = self
            .plans(qid)
            .iter()
            .chain(self.original(qid))
            .filter(|p| !p.timed_out);
        cands.min_by(|a, b| a.latency.total_cmp(&b.latency))
    }

    /// The episode-bounty reference set for `qid` (§III Reward):
    /// `[best, median-of-better-than-original, original]` with their
    /// `refb_i = Adv_init(ORI, ref_i)`, ordered by decreasing bounty.
    /// Degenerates gracefully when no plan beats the original yet.
    pub fn references(&self, qid: QueryId, scale: &AdvantageScale) -> Vec<(&ExecutedPlan, f64)> {
        let Some(orig) = self.original(qid) else {
            return Vec::new();
        };
        let mut better: Vec<&ExecutedPlan> = self
            .plans(qid)
            .iter()
            .filter(|p| !p.timed_out && p.latency < orig.latency)
            .collect();
        better.sort_by(|a, b| a.latency.total_cmp(&b.latency));
        let mut refs: Vec<(&ExecutedPlan, f64)> = Vec::with_capacity(3);
        if let Some(best) = better.first() {
            refs.push((best, scale.initial_advantage(orig.latency, best.latency)));
        }
        if better.len() >= 2 {
            let median = better[better.len() / 2];
            refs.push((
                median,
                scale.initial_advantage(orig.latency, median.latency),
            ));
        }
        refs.push((orig, 0.0));
        refs
    }

    /// Build AAM training pairs from true latencies.
    ///
    /// All ordered pairs of distinct executed plans (original included) per
    /// query, minus pairs where *both* sides timed out; capped at
    /// `max_pairs_per_query` by random subsampling to keep epochs bounded.
    ///
    /// Runs in two phases so the labelling loop can fan out: pair *selection*
    /// is sequential (it consumes the seeded `rng`, so ordering must be
    /// stable), then pair *materialisation* — scoring and cloning the
    /// encodings — is sharded across a scoped worker pool with per-query
    /// output slots, keeping the result identical to the sequential loop.
    pub fn training_pairs(
        &self,
        scale: &AdvantageScale,
        max_pairs_per_query: usize,
        rng: &mut StdRng,
    ) -> Vec<AamSample> {
        // Phase 1: choose which pairs to emit per query (rng-dependent).
        let mut jobs: Vec<PairJob> = Vec::new();
        for qid in self.queries() {
            let mut all: Vec<&ExecutedPlan> = self.plans(qid).iter().collect();
            if let Some(orig) = self.original(qid) {
                all.push(orig);
            }
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for i in 0..all.len() {
                for j in 0..all.len() {
                    if i == j {
                        continue;
                    }
                    if all[i].timed_out && all[j].timed_out {
                        continue; // §V-B: drop double-timeout pairs
                    }
                    pairs.push((i, j));
                }
            }
            if pairs.len() > max_pairs_per_query {
                pairs.shuffle(rng);
                pairs.truncate(max_pairs_per_query);
            }
            if !pairs.is_empty() {
                jobs.push((all, pairs));
            }
        }
        // Phase 2: label + clone in parallel, results merged in job order.
        const WORKERS: usize = 4;
        let chunk = jobs.len().div_ceil(WORKERS).max(1);
        let nshards = jobs.len().div_ceil(chunk);
        foss_common::run_sharded(nshards, |wi| {
            jobs[wi * chunk..((wi + 1) * chunk).min(jobs.len())]
                .iter()
                .flat_map(|(all, pairs)| {
                    pairs.iter().map(|&(i, j)| {
                        let label = scale.score_latencies(all[i].latency, all[j].latency);
                        (all[i].encoded.clone(), all[j].encoded.clone(), label)
                    })
                })
                .collect::<Vec<AamSample>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_optimizer::{AccessPath, JoinMethod, PlanNode};

    fn dummy_encoded(tag: usize) -> EncodedPlan {
        EncodedPlan {
            ops: vec![tag % 6],
            tables: vec![1],
            sels: vec![0],
            rows: vec![1],
            heights: vec![0],
            structures: vec![2],
            reach: vec![vec![true]],
            step: 0.0,
        }
    }

    fn executed(order: Vec<usize>, latency: f64, timed_out: bool) -> ExecutedPlan {
        let n = order.len();
        let icp = Icp::new(order, vec![JoinMethod::Hash; n - 1]).unwrap();
        ExecutedPlan {
            icp,
            plan: PhysicalPlan {
                root: PlanNode::Scan {
                    relation: 0,
                    access: AccessPath::SeqScan,
                    est_rows: 1.0,
                    est_cost: 1.0,
                },
            },
            encoded: dummy_encoded(latency as usize),
            latency,
            timed_out,
        }
    }

    fn qid() -> QueryId {
        QueryId::new(0)
    }

    #[test]
    fn dedup_by_icp_fingerprint() {
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1], 100.0, false));
        assert!(buf.record(qid(), executed(vec![1, 0], 50.0, false)));
        assert!(!buf.record(qid(), executed(vec![1, 0], 55.0, false)));
        assert_eq!(buf.plans(qid()).len(), 1);
        assert_eq!(buf.total_plans(), 2);
    }

    #[test]
    fn original_icp_is_deduped_too() {
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1], 100.0, false));
        assert!(!buf.record(qid(), executed(vec![0, 1], 100.0, false)));
    }

    #[test]
    fn best_ignores_timeouts() {
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1, 2], 100.0, false));
        buf.record(qid(), executed(vec![1, 0, 2], 20.0, true)); // timed out
        buf.record(qid(), executed(vec![2, 0, 1], 40.0, false));
        assert_eq!(buf.best(qid()).unwrap().latency, 40.0);
    }

    #[test]
    fn references_order_and_bounties() {
        let scale = AdvantageScale::paper_default();
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1, 2, 3], 100.0, false));
        buf.record(qid(), executed(vec![1, 0, 2, 3], 20.0, false));
        buf.record(qid(), executed(vec![2, 0, 1, 3], 50.0, false));
        buf.record(qid(), executed(vec![3, 0, 1, 2], 80.0, false));
        buf.record(qid(), executed(vec![0, 2, 1, 3], 150.0, false)); // worse
        let refs = buf.references(qid(), &scale);
        assert_eq!(refs.len(), 3);
        // Best = 20 → refb 0.8; median of {20,50,80} = 50 → 0.5; orig → 0.
        assert_eq!(refs[0].0.latency, 20.0);
        assert!((refs[0].1 - 0.8).abs() < 1e-9);
        assert_eq!(refs[1].0.latency, 50.0);
        assert!((refs[1].1 - 0.5).abs() < 1e-9);
        assert_eq!(refs[2].1, 0.0);
        // Bounties decrease.
        assert!(refs[0].1 >= refs[1].1 && refs[1].1 >= refs[2].1);
    }

    #[test]
    fn references_degenerate_without_better_plans() {
        let scale = AdvantageScale::paper_default();
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1], 100.0, false));
        buf.record(qid(), executed(vec![1, 0], 500.0, false));
        let refs = buf.references(qid(), &scale);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].1, 0.0);
    }

    #[test]
    fn training_pairs_filter_double_timeouts() {
        use rand::SeedableRng;
        let scale = AdvantageScale::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1, 2], 100.0, false));
        buf.record(qid(), executed(vec![1, 0, 2], 150.0, true));
        buf.record(qid(), executed(vec![2, 0, 1], 150.0, true));
        let pairs = buf.training_pairs(&scale, 1000, &mut rng);
        // 3 plans → 6 ordered pairs, minus the 2 double-timeout pairs.
        assert_eq!(pairs.len(), 4);
        // Label sanity: original (100) vs timeout (150): right worse → 0;
        // timeout vs original: saves 1/3 → score 1.
        assert!(pairs.iter().any(|(_, _, l)| *l == 1));
    }

    #[test]
    fn training_pairs_capped() {
        use rand::SeedableRng;
        let scale = AdvantageScale::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = ExecutionBuffer::new();
        buf.record_original(qid(), executed(vec![0, 1, 2, 3], 100.0, false));
        // 6 distinct candidates → 7 plans → 42 ordered pairs.
        let perms: Vec<Vec<usize>> = vec![
            vec![1, 0, 2, 3],
            vec![2, 0, 1, 3],
            vec![3, 0, 1, 2],
            vec![0, 2, 1, 3],
            vec![0, 3, 1, 2],
            vec![1, 2, 0, 3],
        ];
        for (i, p) in perms.into_iter().enumerate() {
            buf.record(qid(), executed(p, 50.0 + i as f64, false));
        }
        let pairs = buf.training_pairs(&scale, 10, &mut rng);
        assert_eq!(pairs.len(), 10);
    }
}
