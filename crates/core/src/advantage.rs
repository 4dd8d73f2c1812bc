//! Advantage definition and discretisation (§III Reward, §IV-B).
//!
//! `Adv_init(CP_l, CP_r) = U(CP_l) − U(CP_r) ∈ (−∞, 1]` measures how much
//! better the *right* plan is than the *left* one. With the performance
//! utility `U` anchored on the left plan this is `1 − lat(r)/lat(l)`: the
//! fraction of the left plan's time the right plan saves. The ordered split
//! points `{d_i}` partition `(−∞, 1]` into `l + 1` intervals that map to the
//! discrete scores `0..=l`; FOSS uses `{0.05, 0.50}` → scores `{0, 1, 2}`.

use serde::{Deserialize, Serialize};

/// The discretisation scale: split points plus helpers for the paper's
/// `Adv`, `D̂_k` and episode-bounty arithmetic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdvantageScale {
    points: Vec<f64>,
}

impl AdvantageScale {
    /// Build from ordered split points in `[0, 1)`.
    pub fn new(points: Vec<f64>) -> Self {
        assert!(!points.is_empty(), "need at least one split point");
        assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "split points must be strictly increasing"
        );
        assert!(points.iter().all(|&d| (0.0..1.0).contains(&d)));
        Self { points }
    }

    /// The paper's default `{0.05, 0.50}`.
    pub fn paper_default() -> Self {
        Self::new(vec![0.05, 0.50])
    }

    /// Number of discrete scores (`l + 1`).
    pub fn num_scores(&self) -> usize {
        self.points.len() + 1
    }

    /// `l` — number of split points.
    pub fn l(&self) -> usize {
        self.points.len()
    }

    /// Continuous initial advantage of `right` over `left` given latencies.
    /// Both latencies must be positive.
    pub fn initial_advantage(&self, lat_left: f64, lat_right: f64) -> f64 {
        debug_assert!(lat_left > 0.0 && lat_right > 0.0);
        1.0 - lat_right / lat_left
    }

    /// Discretise a continuous advantage: `Adv = k − 1` where
    /// `Adv_init ∈ D_k` (Eq. 2). Returns a value in `0..num_scores()`.
    pub fn score(&self, adv_init: f64) -> usize {
        self.points.iter().take_while(|&&d| adv_init > d).count()
    }

    /// Discrete advantage of `right` over `left` from latencies.
    pub fn score_latencies(&self, lat_left: f64, lat_right: f64) -> usize {
        self.score(self.initial_advantage(lat_left, lat_right))
    }

    /// Midpoint value `D̂_k = (d_k + d_{k−1}) / 2` with `D̂_0 = 0` and
    /// `d_0 = 0` (used by the episode bounty).
    pub fn d_hat(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            let prev = if k == 1 { 0.0 } else { self.points[k - 2] };
            (self.points[k - 1] + prev) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> AdvantageScale {
        AdvantageScale::paper_default()
    }

    #[test]
    fn initial_advantage_ranges() {
        let s = scale();
        // Equal plans → 0; right twice as fast → 0.5; right 10× slower → -9.
        assert_eq!(s.initial_advantage(100.0, 100.0), 0.0);
        assert_eq!(s.initial_advantage(100.0, 50.0), 0.5);
        assert_eq!(s.initial_advantage(100.0, 1000.0), -9.0);
        // Upper bound approaches 1 but never reaches it.
        assert!(s.initial_advantage(100.0, 1e-9) < 1.0);
    }

    #[test]
    fn score_boundaries() {
        let s = scale();
        // (−∞, 0.05] → 0, (0.05, 0.50] → 1, (0.50, 1] → 2.
        assert_eq!(s.score(-5.0), 0);
        assert_eq!(s.score(0.0), 0);
        assert_eq!(s.score(0.05), 0);
        assert_eq!(s.score(0.050001), 1);
        assert_eq!(s.score(0.5), 1);
        assert_eq!(s.score(0.500001), 2);
        assert_eq!(s.score(0.99), 2);
    }

    #[test]
    fn score_latencies_semantics() {
        let s = scale();
        // Right saves 60% → score 2 ("significantly superior").
        assert_eq!(s.score_latencies(100.0, 40.0), 2);
        // Right saves 20% → score 1.
        assert_eq!(s.score_latencies(100.0, 80.0), 1);
        // Right saves 3% (noise) or is worse → score 0.
        assert_eq!(s.score_latencies(100.0, 97.0), 0);
        assert_eq!(s.score_latencies(100.0, 500.0), 0);
    }

    #[test]
    fn d_hat_values() {
        let s = scale();
        assert_eq!(s.d_hat(0), 0.0);
        assert!((s.d_hat(1) - 0.025).abs() < 1e-12);
        assert!((s.d_hat(2) - 0.275).abs() < 1e-12);
    }

    #[test]
    fn num_scores_tracks_points() {
        assert_eq!(scale().num_scores(), 3);
        assert_eq!(AdvantageScale::new(vec![0.1]).num_scores(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_rejected() {
        let _ = AdvantageScale::new(vec![0.5, 0.05]);
    }
}
