//! The asymmetric advantage model (§IV-B, §IV-C).
//!
//! `θadv(CP_l, CP_r) → FC2( FC1(ϕ(State(l)) ⊕ pos_left) −
//! FC1(ϕ(State(r)) ⊕ pos_right) )`, mapping a plan pair to `K = 3` advantage
//! scores. The learned left/right position embeddings make the model
//! *asymmetric*: swapping the pair is not guaranteed to negate the output,
//! which matters because the advantage definition itself is anchored on the
//! left plan.
//!
//! Training uses the asymmetric focal loss with label smoothing: positive
//! (target) classes decay with `γ+`, negative classes with `γ− > γ+`, so the
//! skew toward score-0 samples (most mutations make plans worse) does not
//! drown out the rare score-2 "much better plan" examples.

use foss_common::sync::Mutex;
use foss_nn::{Adam, Embedding, GradStore, Graph, Linear, Matrix, ParamSet, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::config::FossConfig;
use crate::encoding::EncodedPlan;
use crate::state_net::StateNetwork;

/// A labelled training pair: `(left, right, Adv(left, right))`.
pub type AamSample = (EncodedPlan, EncodedPlan, usize);

/// Number of gradient shards each training minibatch is split into. Shard
/// boundaries are a pure function of the minibatch size (never of the host's
/// core count), and shard gradients are merged in shard order, so training is
/// bit-for-bit reproducible on any machine.
const GRAD_SHARDS: usize = 4;

/// Pairs per inference tape of the accuracy pass.
const ACCURACY_CHUNK: usize = 64;

/// Workers the accuracy pass spreads its chunks over.
const ACCURACY_SHARDS: usize = 4;

/// The AAM: its own state network, position embeddings and difference head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvantageModel {
    set: ParamSet,
    state_net: StateNetwork,
    pos_emb: Embedding,
    fc1: Linear,
    fc2: Linear,
    adam: Adam,
    gamma_pos: f32,
    gamma_neg: f32,
    smoothing: f32,
    k: usize,
    batch: usize,
}

impl AdvantageModel {
    /// Allocate a fresh model for a schema with `table_vocab` table ids.
    pub fn new(table_vocab: usize, cfg: &FossConfig, rng: &mut StdRng) -> Self {
        let mut set = ParamSet::new();
        let state_net = StateNetwork::new(
            &mut set,
            table_vocab,
            cfg.d_model,
            cfg.d_state,
            cfg.heads,
            cfg.blocks,
            rng,
        );
        let d_pos = 8;
        let pos_emb = Embedding::new(&mut set, 2, d_pos, rng);
        let fc1 = Linear::new(&mut set, cfg.d_state + d_pos, cfg.d_state, rng);
        let fc2 = Linear::new(&mut set, cfg.d_state, cfg.num_classes(), rng);
        Self {
            set,
            state_net,
            pos_emb,
            fc1,
            fc2,
            adam: Adam::new(cfg.aam_lr),
            gamma_pos: cfg.focal_gamma_pos,
            gamma_neg: cfg.focal_gamma_neg,
            smoothing: cfg.label_smoothing,
            k: cfg.num_classes(),
            batch: cfg.aam_batch,
        }
    }

    /// Number of advantage classes.
    pub fn num_classes(&self) -> usize {
        self.k
    }

    /// Rows of the state network's table-id embedding.
    pub(crate) fn table_vocab(&self) -> usize {
        self.state_net.table_vocab()
    }

    /// Record the batched forward pass on ONE tape; returns `B×K` logits.
    ///
    /// All left plans and all right plans go through the state network as two
    /// stacked segment batches, so graph construction, embedding gathers and
    /// attention kernels are paid once per candidate set instead of once per
    /// pair.
    fn forward_pairs(&self, g: &mut Graph, pairs: &[(&EncodedPlan, &EncodedPlan)]) -> Var {
        let b = pairs.len();
        // Candidate sets repeat plans constantly (the tournament scores one
        // champion against many challengers; the original plan appears in
        // every wave), so the expensive state network runs once per *unique*
        // plan — identified by reference — and pairs gather their rows from
        // that shared batch. Gather copies rows verbatim, so dedup changes
        // no bits.
        let mut uniq: Vec<&EncodedPlan> = Vec::new();
        let mut index_of: foss_common::FxHashMap<*const EncodedPlan, usize> =
            foss_common::FxHashMap::default();
        let mut left_ix = Vec::with_capacity(b);
        let mut right_ix = Vec::with_capacity(b);
        for &(l, r) in pairs {
            for (plan, ix) in [(l, &mut left_ix), (r, &mut right_ix)] {
                let id = *index_of
                    .entry(plan as *const EncodedPlan)
                    .or_insert_with(|| {
                        uniq.push(plan);
                        uniq.len() - 1
                    });
                ix.push(id);
            }
        }
        let states = self.state_net.forward_batch(g, &self.set, &uniq);
        let sl = g.gather(states, &left_ix);
        let sr = g.gather(states, &right_ix);
        self.head(g, sl, sr)
    }

    /// The difference head over `B×d_state` left and right state vectors;
    /// returns `B×K` logits.
    fn head(&self, g: &mut Graph, sl: Var, sr: Var) -> Var {
        let b = g.value(sl).rows;
        let pos_l = self.pos_emb.forward(g, &self.set, &vec![0usize; b]);
        let pos_r = self.pos_emb.forward(g, &self.set, &vec![1usize; b]);
        let hl_in = g.concat_cols(&[sl, pos_l]);
        let hr_in = g.concat_cols(&[sr, pos_r]);
        let hl = self.fc1.forward(g, &self.set, hl_in);
        let hl = g.relu(hl);
        let hr = self.fc1.forward(g, &self.set, hr_in);
        let hr = g.relu(hr);
        let diff = g.sub(hl, hr);
        self.fc2.forward(g, &self.set, diff)
    }

    /// Predict the discrete advantage score of `right` over `left`.
    /// Singleton case of [`AdvantageModel::predict_batch`] — same tape, same
    /// kernels, same bit patterns.
    pub fn predict(&self, left: &EncodedPlan, right: &EncodedPlan) -> usize {
        self.predict_batch(&[(left, right)])[0]
    }

    /// Predict scores for a batch of pairs with one graph build and one
    /// argmax sweep over the `B×K` logits.
    pub fn predict_batch(&self, pairs: &[(&EncodedPlan, &EncodedPlan)]) -> Vec<usize> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::inference();
        let logits = self.forward_pairs(&mut g, pairs);
        let m = g.value(logits);
        (0..m.rows).map(|r| argmax(m.row(r))).collect()
    }

    /// The state network's output `ϕ(plan)` (`d_state` values): what
    /// [`AdvantageModel::predict`] computes for each side of a pair before
    /// the difference head. Rows of a state batch do not depend on each
    /// other, so this is bit-identical to the plan's row in any batch.
    pub(crate) fn state_vec(&self, plan: &EncodedPlan) -> Vec<f32> {
        let mut g = Graph::inference();
        let states = self.state_net.forward_batch(&mut g, &self.set, &[plan]);
        g.value(states).data.clone()
    }

    /// [`AdvantageModel::predict`] from the two plans' state vectors
    /// ([`AdvantageModel::state_vec`]): the difference head alone, bit for
    /// bit the prediction on the plans themselves — `gather` copies state
    /// rows verbatim. Lets a caller that scores the same plans again and
    /// again run the state network once per plan.
    pub(crate) fn predict_from_states(&self, left: &[f32], right: &[f32]) -> usize {
        let mut g = Graph::inference();
        let sl = g.input(Matrix::from_vec(1, left.len(), left.to_vec()));
        let sr = g.input(Matrix::from_vec(1, right.len(), right.to_vec()));
        let logits = self.head(&mut g, sl, sr);
        argmax(g.value(logits).row(0))
    }

    /// The asymmetric focal loss with label smoothing, summed over the rows
    /// of `logits` and scaled by `1/denom`. Workers pass the *full* minibatch
    /// size as `denom` so shard losses add up to the minibatch mean loss.
    fn loss(&self, g: &mut Graph, logits: Var, targets: &[usize], denom: usize) -> Var {
        let b = targets.len();
        let k = self.k;
        let eps = self.smoothing;
        let mut h_pos = Matrix::zeros(b, k);
        let mut h_neg = Matrix::zeros(b, k);
        for (r, &y) in targets.iter().enumerate() {
            for c in 0..k {
                if c == y {
                    h_pos.set(r, c, 1.0 - eps);
                } else {
                    h_neg.set(r, c, eps / (k as f32 - 1.0));
                }
            }
        }
        let p = g.softmax_rows(logits);
        let lp = g.log_softmax_rows(logits);
        let neg_lp = g.scale(lp, -1.0);
        // Positive classes: decay (1 − p)^γ+.
        let ones = g.input(Matrix::full(b, k, 1.0));
        let om_p = g.sub(ones, p);
        let decay_pos = g.pow_const(om_p, self.gamma_pos);
        let wpos = g.input(h_pos);
        let tp0 = g.mul(decay_pos, neg_lp);
        let term_pos = g.mul(tp0, wpos);
        // Negative classes: p̂ = 1 − p, so the decay is p^γ−.
        let decay_neg = g.pow_const(p, self.gamma_neg);
        let wneg = g.input(h_neg);
        let tn0 = g.mul(decay_neg, neg_lp);
        let term_neg = g.mul(tn0, wneg);
        let total = g.add(term_pos, term_neg);
        let s = g.sum_all(total);
        g.scale(s, 1.0 / denom as f32)
    }

    /// Forward + backward one minibatch, sharded across a scoped-thread
    /// worker pool via [`foss_common::run_sharded`]. Each worker runs its
    /// shard's batched tape against the shared parameters and accumulates
    /// into its own store of `stores`, zeroed first; the losses come back in
    /// shard order, so the merge is independent of thread scheduling.
    /// Returns the minibatch loss and the number of shards, whose stores
    /// now hold the shards' gradients.
    fn sharded_grads(
        &self,
        pairs: &[(&EncodedPlan, &EncodedPlan)],
        targets: &[usize],
        stores: &mut [GradStore],
    ) -> (f32, usize) {
        let b = pairs.len();
        let shard = b.div_ceil(GRAD_SHARDS).max(1);
        let nshards = b.div_ceil(shard);
        let stores: Vec<Mutex<&mut GradStore>> = stores.iter_mut().map(Mutex::new).collect();
        let losses = foss_common::run_sharded(nshards, |si| {
            let pc = &pairs[si * shard..((si + 1) * shard).min(b)];
            let tc = &targets[si * shard..((si + 1) * shard).min(b)];
            let mut g = Graph::new();
            let logits = self.forward_pairs(&mut g, pc);
            let loss = self.loss(&mut g, logits, tc, b);
            let lv = g.value(loss).get(0, 0);
            let mut grads = stores[si].lock();
            grads.zero();
            g.backward_into(loss, &mut **grads);
            lv
        });
        let loss = losses.into_iter().fold(0.0, |total, lv| total + lv);
        (loss, nshards)
    }

    /// One supervised epoch over `samples`; returns the mean minibatch loss.
    ///
    /// Minibatch order and composition come from the seeded `rng` exactly as
    /// in the sequential implementation; each minibatch's gradient is then
    /// computed by `AdvantageModel::sharded_grads` in parallel and applied
    /// as one Adam step. Fixed shard boundaries + ordered merges make the
    /// whole epoch bit-for-bit deterministic for a fixed seed.
    pub fn train_epoch(&mut self, samples: &[AamSample], rng: &mut StdRng) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        // One gradient store per shard for the whole epoch: a fresh set per
        // minibatch was allocated and faulted in again every time.
        let mut stores: Vec<GradStore> = (0..GRAD_SHARDS)
            .map(|_| GradStore::zeros_like(&self.set))
            .collect();
        for chunk in order.chunks(self.batch.max(1)) {
            let pairs: Vec<(&EncodedPlan, &EncodedPlan)> = chunk
                .iter()
                .map(|&i| (&samples[i].0, &samples[i].1))
                .collect();
            let targets: Vec<usize> = chunk.iter().map(|&i| samples[i].2).collect();
            let (loss, shards) = self.sharded_grads(&pairs, &targets, &mut stores);
            total += loss;
            batches += 1;
            self.set.zero_grad();
            for store in &stores[..shards] {
                store.add_into(&mut self.set);
            }
            let norm = self.set.grad_norm();
            if norm > 5.0 {
                self.set.scale_grads(5.0 / norm);
            }
            self.adam.step(&mut self.set);
        }
        total / batches as f32
    }

    /// Classification accuracy on `samples`.
    ///
    /// Samples own their encodings (`training_pairs` clones one per side), so
    /// equal plans are first mapped to one representative by content; the
    /// pointer dedup in `forward_pairs` then runs the state network once per
    /// distinct plan of a chunk. Chunks of `ACCURACY_CHUNK` pairs — each on
    /// its own small inference tape, never one tape over the whole buffer —
    /// are spread over `ACCURACY_SHARDS` workers; a pair's prediction does
    /// not depend on what else shares its tape, so the count is that of
    /// per-pair [`AdvantageModel::predict`].
    pub fn accuracy(&self, samples: &[AamSample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut distinct: foss_common::FxHashMap<Vec<u8>, &EncodedPlan> =
            foss_common::FxHashMap::default();
        let mut representative = |plan| {
            let key = EncodedPlan::content_key(plan);
            *distinct.entry(key).or_insert(plan)
        };
        let pairs: Vec<(&EncodedPlan, &EncodedPlan)> = samples
            .iter()
            .map(|s| (representative(&s.0), representative(&s.1)))
            .collect();
        let chunks: Vec<_> = pairs
            .chunks(ACCURACY_CHUNK)
            .zip(samples.chunks(ACCURACY_CHUNK))
            .collect();
        let per_shard = chunks.len().div_ceil(ACCURACY_SHARDS);
        let hits: usize = foss_common::run_sharded(chunks.len().div_ceil(per_shard), |si| {
            chunks[si * per_shard..((si + 1) * per_shard).min(chunks.len())]
                .iter()
                .map(|(pairs, samples)| {
                    let preds = self.predict_batch(pairs);
                    preds
                        .iter()
                        .zip(*samples)
                        .filter(|(p, s)| **p == s.2)
                        .count()
                })
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        hits as f32 / samples.len() as f32
    }
}

/// Index of the largest logit (the first on ties; 0 for an empty row).
fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl foss_common::Codec for AdvantageModel {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        self.set.encode(w);
        self.state_net.encode(w);
        self.pos_emb.encode(w);
        self.fc1.encode(w);
        self.fc2.encode(w);
        self.adam.encode(w);
        w.put_f32(self.gamma_pos);
        w.put_f32(self.gamma_neg);
        w.put_f32(self.smoothing);
        w.put_usize(self.k);
        w.put_usize(self.batch);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            set: ParamSet::decode(r)?,
            state_net: StateNetwork::decode(r)?,
            pos_emb: Embedding::decode(r)?,
            fc1: Linear::decode(r)?,
            fc2: Linear::decode(r)?,
            adam: Adam::decode(r)?,
            gamma_pos: r.get_f32()?,
            gamma_neg: r.get_f32()?,
            smoothing: r.get_f32()?,
            k: r.get_usize()?,
            batch: r.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Synthetic plans whose first op code decides the true label, so the
    /// model has a learnable signal.
    fn plan(tag: usize) -> EncodedPlan {
        EncodedPlan {
            ops: vec![tag % 6, 0, 1],
            tables: vec![0, 1, 2],
            sels: vec![10, tag % 10, 0],
            rows: vec![tag % 20, 3, 4],
            heights: vec![1, 0, 0],
            structures: vec![3, 0, 1],
            reach: vec![
                vec![true, true, true],
                vec![true, true, false],
                vec![true, false, true],
            ],
            step: 0.0,
        }
    }

    fn model() -> AdvantageModel {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = FossConfig::tiny();
        AdvantageModel::new(4, &cfg, &mut rng)
    }

    #[test]
    fn predict_returns_valid_class() {
        let m = model();
        let s = m.predict(&plan(0), &plan(1));
        assert!(s < 3);
        // Batch agrees with single prediction.
        let b = m.predict_batch(&[(&plan(0), &plan(1))]);
        assert_eq!(b[0], s);
    }

    #[test]
    fn asymmetry_left_right_not_forced_symmetric() {
        // The architecture must at least be *capable* of asymmetric outputs:
        // raw logits for (a,b) and (b,a) differ for a random init.
        let m = model();
        let a = plan(0);
        let b = plan(5);
        let mut g1 = Graph::new();
        let l1 = m.forward_pairs(&mut g1, &[(&a, &b)]);
        let mut g2 = Graph::new();
        let l2 = m.forward_pairs(&mut g2, &[(&b, &a)]);
        assert_ne!(g1.value(l1).data, g2.value(l2).data);
    }

    #[test]
    fn learns_a_separable_labelling() {
        // Label = 2 when right plan has op tag 5, else 0. The model should
        // fit this quickly.
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(17);
        let mut samples = Vec::new();
        for i in 0..40 {
            let right_tag = if i % 2 == 0 { 5 } else { 2 };
            let label = if right_tag == 5 { 2 } else { 0 };
            samples.push((plan(0), plan(right_tag), label));
        }
        let first = m.train_epoch(&samples, &mut rng);
        let mut last = first;
        for _ in 0..30 {
            last = m.train_epoch(&samples, &mut rng);
        }
        assert!(last < first, "loss should fall: {first} → {last}");
        assert!(
            m.accuracy(&samples) > 0.9,
            "accuracy={}",
            m.accuracy(&samples)
        );
    }

    #[test]
    fn skewed_labels_still_learn_minority_class() {
        // 90% score-0 pairs, 10% score-2 — the situation the asymmetric loss
        // is designed for.
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(23);
        let mut samples = Vec::new();
        for i in 0..50 {
            if i % 10 == 0 {
                samples.push((plan(1), plan(5), 2usize));
            } else {
                samples.push((plan(1), plan((i % 4) as usize % 4), 0usize));
            }
        }
        for _ in 0..40 {
            m.train_epoch(&samples, &mut rng);
        }
        // The minority pair must be classified correctly.
        assert_eq!(m.predict(&plan(1), &plan(5)), 2);
    }

    #[test]
    fn predict_batch_matches_predict_loop_exactly() {
        let m = model();
        // Ragged pair set: plans of different lengths in one batch.
        let mut long = plan(3);
        long.ops.push(2);
        long.tables.push(3);
        long.sels.push(4);
        long.rows.push(7);
        long.heights.push(2);
        long.structures.push(2);
        long.reach = vec![vec![true; 4]; 4];
        let plans = [plan(0), plan(1), plan(5), long];
        let mut pairs = Vec::new();
        for l in &plans {
            for r in &plans {
                pairs.push((l, r));
            }
        }
        let batched = m.predict_batch(&pairs);
        let looped: Vec<usize> = pairs.iter().map(|(l, r)| m.predict(l, r)).collect();
        assert_eq!(batched, looped);
    }

    #[test]
    fn predict_from_states_equals_predict_exactly() {
        // Ragged plans (three and four nodes) after some training, so the
        // head's weights are not at their initial values.
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(29);
        let samples: Vec<AamSample> = (0..40)
            .map(|i| (plan(i % 6), plan((i * 5 + 2) % 9), i % 3))
            .collect();
        for _ in 0..3 {
            m.train_epoch(&samples, &mut rng);
        }
        let mut long = plan(4);
        long.ops.push(3);
        long.tables.push(1);
        long.sels.push(7);
        long.rows.push(11);
        long.heights.push(2);
        long.structures.push(2);
        long.reach = vec![vec![true, false, true, true]; 4];
        long.step = 0.5;
        let plans = [plan(0), plan(1), plan(5), plan(8), long];
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        // A state vector is its plan's row of any batch.
        let mut g = Graph::inference();
        let batch = m.state_net.forward_batch(&mut g, &m.set, &refs);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(g.value(batch).row(i), m.state_vec(p).as_slice());
        }
        let mut verdicts = [0usize; 3];
        for l in &plans {
            for r in &plans {
                let (sl, sr) = (m.state_vec(l), m.state_vec(r));
                assert_eq!(m.predict_from_states(&sl, &sr), m.predict(l, r));
                verdicts[m.predict(l, r)] += 1;
                // The logits themselves, not only their argmax.
                let mut g1 = Graph::inference();
                let want = m.forward_pairs(&mut g1, &[(l, r)]);
                let mut g2 = Graph::inference();
                let (vl, vr) = (
                    g2.input(Matrix::from_vec(1, sl.len(), sl)),
                    g2.input(Matrix::from_vec(1, sr.len(), sr)),
                );
                let got = m.head(&mut g2, vl, vr);
                let bits = |g: &Graph, v| {
                    g.value(v)
                        .data
                        .iter()
                        .map(|x: &f32| x.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&g2, got), bits(&g1, want));
            }
        }
        assert!(
            verdicts.iter().filter(|&&n| n > 0).count() >= 2,
            "{verdicts:?}"
        );
    }

    #[test]
    fn chunked_accuracy_counts_exactly_the_per_pair_predictions() {
        // More pairs than one chunk, not a multiple of it; every encoding is
        // its own allocation (what `training_pairs` produces), with the same
        // plan appearing many times by content and one sample repeated.
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(41);
        let mut samples: Vec<AamSample> = (0..3 * ACCURACY_CHUNK + 7)
            .map(|i| (plan(i % 5), plan((i * 7 + 1) % 11), i % 3))
            .collect();
        samples.push(samples[0].clone());
        for _ in 0..3 {
            m.train_epoch(&samples, &mut rng);
        }
        let hits = samples
            .iter()
            .filter(|s| m.predict(&s.0, &s.1) == s.2)
            .count();
        assert!(0 < hits && hits < samples.len(), "degenerate case: {hits}");
        assert_eq!(
            m.accuracy(&samples).to_bits(),
            (hits as f32 / samples.len() as f32).to_bits()
        );
    }

    #[test]
    fn parallel_train_epoch_is_deterministic() {
        // Same seed ⇒ bit-for-bit identical models, losses and predictions,
        // regardless of worker scheduling.
        let run = || {
            let mut m = model();
            let mut rng = StdRng::seed_from_u64(99);
            let samples: Vec<AamSample> =
                (0..37) // not a multiple of batch or shard count
                    .map(|i| (plan(i), plan((i + 3) % 7), i % 3))
                    .collect();
            let losses: Vec<f32> = (0..4).map(|_| m.train_epoch(&samples, &mut rng)).collect();
            let preds = m.predict_batch(&samples.iter().map(|s| (&s.0, &s.1)).collect::<Vec<_>>());
            (losses, preds)
        };
        let (l1, p1) = run();
        let (l2, p2) = run();
        assert_eq!(l1, l2, "losses must be bitwise identical");
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_training_set_is_noop() {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.train_epoch(&[], &mut rng), 0.0);
        assert_eq!(m.accuracy(&[]), 0.0);
    }
}
