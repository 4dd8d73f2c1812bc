//! The transformer state network `ϕ` (§IV-A State Network).
//!
//! Node features pass through per-feature embedding layers, are concatenated
//! into node vectors (`N_i ⊕ height_i ⊕ ns_i`), flow through multi-head
//! attention blocks whose scores are restricted by the reachability mask,
//! get mean-pooled and — concatenated with the step feature — projected by a
//! linear layer into the final `statevec`.

use foss_common::{ByteReader, ByteWriter, Codec};
use foss_nn::{
    segment_additive_mask, Embedding, Graph, LayerNorm, Linear, Matrix, MultiHeadAttention,
    ParamSet, Var,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::encoding::{EncodedPlan, HEIGHT_VOCAB, OP_VOCAB, ROWS_VOCAB, SEL_VOCAB, STRUCT_VOCAB};

/// One attention block: MHA + residual + layer norm, FFN + residual + norm.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Block {
    attn: MultiHeadAttention,
    norm1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    norm2: LayerNorm,
}

/// The state network shared (architecturally) by the planner's agent and the
/// AAM — each instantiates its own parameters, as in the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StateNetwork {
    op_emb: Embedding,
    table_emb: Embedding,
    sel_emb: Embedding,
    rows_emb: Embedding,
    height_emb: Embedding,
    struct_emb: Embedding,
    blocks: Vec<Block>,
    out: Linear,
    /// Transformer width.
    pub d_model: usize,
    /// Output (`statevec`) width.
    pub d_state: usize,
}

impl StateNetwork {
    /// Allocate a network in `set`. `d_model` must be divisible by 8 (four
    /// node-feature embeddings of `d/8` plus two structural embeddings of
    /// `d/4` concatenate to exactly `d_model`).
    pub fn new(
        set: &mut ParamSet,
        table_vocab: usize,
        d_model: usize,
        d_state: usize,
        heads: usize,
        num_blocks: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(d_model % 8, 0, "d_model must be divisible by 8");
        let de = d_model / 8;
        let dh = d_model / 4;
        let blocks = (0..num_blocks)
            .map(|_| Block {
                attn: MultiHeadAttention::new(set, d_model, heads, rng),
                norm1: LayerNorm::new(set, d_model),
                ff1: Linear::new(set, d_model, d_model * 2, rng),
                ff2: Linear::new(set, d_model * 2, d_model, rng),
                norm2: LayerNorm::new(set, d_model),
            })
            .collect();
        Self {
            op_emb: Embedding::new(set, OP_VOCAB, de, rng),
            table_emb: Embedding::new(set, table_vocab, de, rng),
            sel_emb: Embedding::new(set, SEL_VOCAB, de, rng),
            rows_emb: Embedding::new(set, ROWS_VOCAB, de, rng),
            height_emb: Embedding::new(set, HEIGHT_VOCAB, dh, rng),
            struct_emb: Embedding::new(set, STRUCT_VOCAB, dh, rng),
            blocks,
            out: Linear::new(set, d_model + 1, d_state, rng),
            d_model,
            d_state,
        }
    }

    /// Record the forward pass for one encoded plan; returns the `1×d_state`
    /// state representation. Delegates to [`StateNetwork::forward_batch`], so
    /// single and batched inference share one code path (and bit patterns).
    pub fn forward(&self, g: &mut Graph, set: &ParamSet, plan: &EncodedPlan) -> Var {
        self.forward_batch(g, set, &[plan])
    }

    /// Forward a batch of plans through ONE stacked computation, producing
    /// `B×d_state` state vectors.
    ///
    /// All plans' nodes are concatenated into a single `ΣL×d_model` sequence:
    /// embeddings become one gather per feature, the attention blocks run on
    /// block-diagonal segment kernels (attention never crosses a plan
    /// boundary), and pooling is a per-segment row mean. Because every op
    /// treats rows/segments independently, row `i` of the result is
    /// bit-identical to `forward(plans[i])` — while graph-construction and
    /// kernel-dispatch overhead is paid once per batch instead of per plan.
    pub fn forward_batch(&self, g: &mut Graph, set: &ParamSet, plans: &[&EncodedPlan]) -> Var {
        assert!(!plans.is_empty(), "cannot encode an empty batch");
        assert!(
            plans.iter().all(|p| !p.is_empty()),
            "cannot encode an empty plan"
        );
        let cat = |f: for<'a> fn(&'a EncodedPlan) -> &'a [usize]| -> Vec<usize> {
            plans.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        // Per-feature embeddings → node vectors N_i ⊕ height_i ⊕ ns_i,
        // one gather per feature for the whole batch.
        let op = self.op_emb.forward(g, set, &cat(|p| p.ops.as_slice()));
        let table = self
            .table_emb
            .forward(g, set, &cat(|p| p.tables.as_slice()));
        let sel = self.sel_emb.forward(g, set, &cat(|p| p.sels.as_slice()));
        let rows = self.rows_emb.forward(g, set, &cat(|p| p.rows.as_slice()));
        let height = self
            .height_emb
            .forward(g, set, &cat(|p| p.heights.as_slice()));
        let st = self
            .struct_emb
            .forward(g, set, &cat(|p| p.structures.as_slice()));
        let mut x = g.concat_cols(&[op, table, sel, rows, height, st]);

        let reaches: Vec<&[Vec<bool>]> = plans.iter().map(|p| p.reach.as_slice()).collect();
        let (mask, segs) = segment_additive_mask(&reaches);
        for block in &self.blocks {
            let attended = block.attn.forward_batch(g, set, x, &mask, &segs);
            let normed = block.norm1.forward_residual(g, set, x, attended);
            let h = block.ff1.forward(g, set, normed);
            let h = g.relu(h);
            let h = block.ff2.forward(g, set, h);
            x = block.norm2.forward_residual(g, set, normed, h);
        }

        let pooled = g.seg_mean_rows(x, &segs);
        let steps = g.input(Matrix::from_vec(
            plans.len(),
            1,
            plans.iter().map(|p| p.step).collect(),
        ));
        let with_step = g.concat_cols(&[pooled, steps]);
        self.out.forward(g, set, with_step)
    }

    /// Rows of the table-id embedding (the encoder's `table_vocab`).
    pub(crate) fn table_vocab(&self) -> usize {
        self.table_emb.vocab
    }
}

impl Codec for Block {
    fn encode(&self, w: &mut ByteWriter) {
        self.attn.encode(w);
        self.norm1.encode(w);
        self.ff1.encode(w);
        self.ff2.encode(w);
        self.norm2.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            attn: MultiHeadAttention::decode(r)?,
            norm1: LayerNorm::decode(r)?,
            ff1: Linear::decode(r)?,
            ff2: Linear::decode(r)?,
            norm2: LayerNorm::decode(r)?,
        })
    }
}

impl Codec for StateNetwork {
    fn encode(&self, w: &mut ByteWriter) {
        self.op_emb.encode(w);
        self.table_emb.encode(w);
        self.sel_emb.encode(w);
        self.rows_emb.encode(w);
        self.height_emb.encode(w);
        self.struct_emb.encode(w);
        self.blocks.encode(w);
        self.out.encode(w);
        w.put_usize(self.d_model);
        w.put_usize(self.d_state);
    }
    fn decode(r: &mut ByteReader<'_>) -> foss_common::Result<Self> {
        Ok(Self {
            op_emb: Embedding::decode(r)?,
            table_emb: Embedding::decode(r)?,
            sel_emb: Embedding::decode(r)?,
            rows_emb: Embedding::decode(r)?,
            height_emb: Embedding::decode(r)?,
            struct_emb: Embedding::decode(r)?,
            blocks: Vec::decode(r)?,
            out: Linear::decode(r)?,
            d_model: r.get_usize()?,
            d_state: r.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_plan(step: f32) -> EncodedPlan {
        EncodedPlan {
            ops: vec![2, 0, 1],
            tables: vec![0, 1, 2],
            sels: vec![10, 0, 3],
            rows: vec![8, 5, 4],
            heights: vec![1, 0, 0],
            structures: vec![3, 0, 1],
            reach: vec![
                vec![true, true, true],
                vec![true, true, false],
                vec![true, false, true],
            ],
            step,
        }
    }

    fn network() -> (StateNetwork, ParamSet) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut set = ParamSet::new();
        let net = StateNetwork::new(&mut set, 4, 32, 24, 2, 2, &mut rng);
        (net, set)
    }

    #[test]
    fn output_shape_is_one_by_dstate() {
        let (net, set) = network();
        let mut g = Graph::new();
        let v = net.forward(&mut g, &set, &tiny_plan(0.0));
        let m = g.value(v);
        assert_eq!((m.rows, m.cols), (1, 24));
        assert!(m.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn step_feature_changes_output() {
        let (net, set) = network();
        let mut g = Graph::new();
        let a = net.forward(&mut g, &set, &tiny_plan(0.0));
        let b = net.forward(&mut g, &set, &tiny_plan(1.0));
        assert_ne!(g.value(a).data, g.value(b).data);
    }

    #[test]
    fn different_plans_embed_differently() {
        let (net, set) = network();
        let mut g = Graph::new();
        let mut other = tiny_plan(0.0);
        other.ops[0] = 4;
        let a = net.forward(&mut g, &set, &tiny_plan(0.0));
        let b = net.forward(&mut g, &set, &other);
        assert_ne!(g.value(a).data, g.value(b).data);
    }

    #[test]
    fn forward_is_deterministic() {
        let (net, set) = network();
        let mut g1 = Graph::new();
        let a = net.forward(&mut g1, &set, &tiny_plan(0.3));
        let mut g2 = Graph::new();
        let b = net.forward(&mut g2, &set, &tiny_plan(0.3));
        assert_eq!(g1.value(a).data, g2.value(b).data);
    }

    #[test]
    fn batch_stacks_rows() {
        let (net, set) = network();
        let p1 = tiny_plan(0.0);
        let p2 = tiny_plan(0.5);
        let mut g = Graph::new();
        let batch = net.forward_batch(&mut g, &set, &[&p1, &p2]);
        let m = g.value(batch);
        assert_eq!((m.rows, m.cols), (2, 24));
        // Row 0 must equal the single-plan forward of p1.
        let mut g2 = Graph::new();
        let single = net.forward(&mut g2, &set, &p1);
        assert_eq!(m.row(0), g2.value(single).row(0));
    }

    #[test]
    fn ragged_batch_matches_singletons_bitwise() {
        // Plans of different node counts in one batch: padding columns in
        // the stacked attention must not perturb any plan's state vector.
        let (net, set) = network();
        let short = tiny_plan(0.25);
        let long = EncodedPlan {
            ops: vec![2, 0, 1, 3, 4],
            tables: vec![0, 1, 2, 3, 0],
            sels: vec![10, 0, 3, 5, 10],
            rows: vec![8, 5, 4, 2, 9],
            heights: vec![2, 1, 0, 0, 1],
            structures: vec![3, 0, 1, 0, 1],
            reach: vec![
                vec![true, true, true, false, true],
                vec![true, true, false, false, false],
                vec![true, false, true, true, false],
                vec![false, false, true, true, false],
                vec![true, false, false, false, true],
            ],
            step: 0.75,
        };
        let mut g = Graph::new();
        let batch = net.forward_batch(&mut g, &set, &[&short, &long, &short]);
        let m = g.value(batch).clone();
        assert_eq!((m.rows, m.cols), (3, 24));
        for (row, plan) in [(0, &short), (1, &long), (2, &short)] {
            let mut g1 = Graph::new();
            let single = net.forward(&mut g1, &set, plan);
            assert_eq!(m.row(row), g1.value(single).row(0), "row {row} diverged");
        }
    }

    #[test]
    fn variable_length_plans_supported() {
        let (net, set) = network();
        let long = EncodedPlan {
            ops: vec![2; 9],
            tables: vec![0; 9],
            sels: vec![10; 9],
            rows: vec![1; 9],
            heights: vec![0; 9],
            structures: vec![3; 9],
            reach: vec![vec![true; 9]; 9],
            step: 0.0,
        };
        let mut g = Graph::new();
        let v = net.forward(&mut g, &set, &long);
        assert_eq!(g.value(v).rows, 1);
    }
}
