//! HybridQO (Yu et al., VLDB 2022), reimplemented on our substrates.
//!
//! HybridQO runs MCTS over *leading join-order prefixes*, hands the
//! promising prefixes to the traditional optimizer as hints, and picks among
//! the completed candidate plans with a learned model. We keep that
//! hint-generation pipeline with a UCT search over prefix extensions whose
//! rollout reward is the (negated, normalised) estimated cost of the
//! prefix-completed plan.

use foss_common::{FxHashMap, Result};
use foss_optimizer::{PhysicalPlan, TraditionalOptimizer};
use foss_query::Query;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::support::{Generator, Learner};

/// How many leading-prefix hints survive the search.
pub const TOP_PREFIXES: usize = 4;
/// UCT iterations per query.
const UCT_ITERS: usize = 48;
/// Maximum prefix length explored.
const MAX_PREFIX: usize = 3;

/// The HybridQO baseline.
pub type HybridQo = Learner<PrefixSearch>;

/// HybridQO's candidates: the expert plan and the plans the expert
/// completes from the best leading prefixes a UCT search finds.
pub struct PrefixSearch;

impl Generator for PrefixSearch {
    const NAME: &'static str = "HybridQO";
    const EPSILON: f64 = 0.4;
    const DECAY: f64 = 0.8;
    const SKIPS_SINGLE_RELATION: bool = false;
    type Key = ();

    fn candidates(
        optimizer: &TraditionalOptimizer,
        query: &Query,
        _best: Option<&()>,
        rng: &mut StdRng,
    ) -> Result<Vec<((), PhysicalPlan)>> {
        let mut out = vec![((), optimizer.optimize(query)?)];
        for prefix in search_prefixes(optimizer, query, rng) {
            if let Ok(plan) = optimizer.optimize_with_leading(query, &prefix) {
                if out
                    .iter()
                    .all(|(_, p)| p.fingerprint() != plan.fingerprint())
                {
                    out.push(((), plan));
                }
            }
        }
        Ok(out)
    }
}

/// UCT over prefix space; returns the best-scoring prefixes.
fn search_prefixes(
    optimizer: &TraditionalOptimizer,
    query: &Query,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let n = query.relation_count();
    // Node statistics keyed by prefix.
    let mut visits: FxHashMap<Vec<usize>, (f64, u32)> = FxHashMap::default();
    let cost_of = |prefix: &[usize]| -> f64 {
        optimizer
            .optimize_with_leading(query, prefix)
            .map(|p| p.est_cost())
            .unwrap_or(f64::INFINITY)
    };
    let base = cost_of(&[0]).max(1.0);
    for _ in 0..UCT_ITERS {
        // Selection: walk down from the empty prefix by UCT.
        let mut prefix: Vec<usize> = Vec::new();
        while prefix.len() < MAX_PREFIX.min(n) {
            let parent_visits = visits.get(&prefix).map_or(1, |s| s.1).max(1) as f64;
            let mut best: Option<(f64, usize)> = None;
            for r in 0..n {
                if prefix.contains(&r) {
                    continue;
                }
                if !prefix.is_empty() && query.edges_between_set(&prefix, r).is_empty() {
                    continue;
                }
                let mut child = prefix.clone();
                child.push(r);
                let (reward_sum, count) = visits.get(&child).copied().unwrap_or((0.0, 0));
                let uct = if count == 0 {
                    f64::INFINITY
                } else {
                    reward_sum / count as f64 + 1.4 * (parent_visits.ln() / count as f64).sqrt()
                };
                if best.as_ref().is_none_or(|(b, _)| uct > *b) {
                    best = Some((uct, r));
                }
            }
            let Some((_, r)) = best else { break };
            prefix.push(r);
            if rng.random_range(0.0..1.0) < 0.3 {
                break; // stochastic depth, keeps short prefixes sampled
            }
        }
        if prefix.is_empty() {
            continue;
        }
        // Rollout: completed-plan estimated cost → normalised reward.
        let cost = cost_of(&prefix);
        let reward = (base / cost.max(1.0)).min(10.0);
        // Backpropagate along all prefixes of the path.
        for end in 1..=prefix.len() {
            let e = visits.entry(prefix[..end].to_vec()).or_insert((0.0, 0));
            e.0 += reward;
            e.1 += 1;
        }
    }
    let mut scored: Vec<(Vec<usize>, f64)> = visits
        .into_iter()
        .filter(|(p, _)| !p.is_empty())
        .map(|(p, (r, c))| (p, r / c.max(1) as f64))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.truncate(TOP_PREFIXES);
    scored.into_iter().map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::tests::{candidates, learner};
    use crate::LearnedOptimizer;
    use foss_core::envs::tests_support::TestWorld;
    use rand::SeedableRng;

    #[test]
    fn prefix_search_returns_valid_prefixes() {
        let world = TestWorld::new(1);
        let mut rng = StdRng::seed_from_u64(11);
        let prefixes = search_prefixes(&world.opt, &world.query, &mut rng);
        assert!(!prefixes.is_empty());
        assert!(prefixes.len() <= TOP_PREFIXES);
        for p in &prefixes {
            assert!(!p.is_empty() && p.len() <= 3);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.len(), "prefix has duplicates: {p:?}");
        }
    }

    #[test]
    fn candidates_respect_their_prefix() {
        let world = TestWorld::new(2);
        let cands = candidates::<PrefixSearch>(&world, 11);
        assert!(cands.len() >= 2, "expert + at least one hinted plan");
        for (_, plan) in &cands {
            assert!(plan.is_left_deep());
        }
    }

    #[test]
    fn trains_and_plans() {
        let world = TestWorld::new(3);
        let mut h: HybridQo = learner(&world, 11);
        let queries = vec![world.query.clone()];
        h.train_round(&queries).unwrap();
        let plan = h.plan(&world.query).unwrap();
        assert!(plan.est_cost() > 0.0);
    }
}
