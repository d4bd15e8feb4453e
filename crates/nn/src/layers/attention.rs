//! Multi-head scaled dot-product attention.

use super::linear::Linear;
use super::InferCtx;
use crate::graph::{AttnMask, NodeId, Tape};
use crate::kernels::{self, Act, Rows};
use crate::params::ParamStore;
use rotom_rng::rngs::StdRng;

/// Multi-head attention with separate Q/K/V/O projections.
///
/// Heads are realized by column-slicing the projected Q/K/V, computing
/// per-head attention, and concatenating — exact, with no reshape machinery.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Register an attention block. `d_model` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must be divisible by heads");
        Self {
            wq: Linear::new(store, rng, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(store, rng, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(store, rng, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(store, rng, &format!("{name}.wo"), d_model, d_model),
            heads,
            d_model,
        }
    }

    /// Attend queries (`Tq x d`) to keys/values (`Tk x d`).
    ///
    /// `mask`, if given, is an additive `Tq x Tk` mask (0 visible / -1e9
    /// hidden) shared across heads.
    pub fn forward(
        &self,
        tape: &mut Tape,
        q_in: NodeId,
        kv_in: NodeId,
        mask: Option<&AttnMask>,
        store: &ParamStore,
    ) -> NodeId {
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward(tape, q_in, store);
        let k = self.wk.forward(tape, kv_in, store);
        let v = self.wv.forward(tape, kv_in, store);
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qs = tape.slice_cols(q, h * dk, dk);
            let ks = tape.slice_cols(k, h * dk, dk);
            let vs = tape.slice_cols(v, h * dk, dk);
            let scores = tape.matmul_tb(qs, ks);
            let scores = tape.scale(scores, scale);
            let attn = tape.masked_softmax(scores, mask);
            head_outputs.push(tape.matmul(attn, vs));
        }
        let concat = tape.concat_cols(&head_outputs);
        self.wo.forward(tape, concat, store)
    }

    /// Model width (for sizing inference workspaces).
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Project the K and V operands of `kv_in` (`tk × d`) into caller
    /// buffers (`tk × d` each), for reuse as [`KvInput::Projected`] across
    /// calls whose key/value input is unchanged — e.g. cross-attention
    /// during autoregressive decoding, where the encoder memory is fixed for
    /// a whole generation.
    pub fn project_kv(
        &self,
        kv_in: &[f32],
        ctx: &InferCtx<'_>,
        k_out: &mut [f32],
        v_out: &mut [f32],
    ) {
        let all = Rows::all(kv_in.len() / self.d_model);
        self.wk.infer(kv_in, all, Act::None, ctx, k_out);
        self.wv.infer(kv_in, all, Act::None, ctx, v_out);
    }

    /// Forward-only attention of the `rows` query rows `q_in` (`rows.len ×
    /// d`) over all `tk` keys/values into `out` (`rows.len × d`),
    /// bit-identical to the same rows of [`forward`](Self::forward):
    /// identical projection GEMM dispatch, per-head slicing layouts, scalar
    /// reduction orders, and softmax kernel. `mask`, if given, holds the
    /// computed rows of the additive `rows.full × tk` mask.
    pub fn infer(
        &self,
        q_in: &[f32],
        rows: Rows,
        kv: KvInput<'_>,
        mask: Option<&[f32]>,
        ctx: &mut InferCtx<'_>,
        out: &mut [f32],
    ) {
        let (k, v) = match kv {
            KvInput::Projected(k, v) => (k, v),
            KvInput::Raw(kv_in) => {
                let mut k = ctx.scratch.take(kv_in.len());
                let mut v = ctx.scratch.take(kv_in.len());
                self.project_kv(kv_in, ctx, &mut k, &mut v);
                self.infer(q_in, rows, KvInput::Projected(&k, &v), mask, ctx, out);
                ctx.scratch.put(k);
                ctx.scratch.put(v);
                return;
            }
        };
        let d = self.d_model;
        let dk = d / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let (tq, tk) = (rows.len, k.len() / d);
        let mut q = ctx.scratch.take(tq * d);
        self.wq.infer(q_in, rows, Act::None, ctx, &mut q);
        let s = &mut *ctx.scratch;
        let mut concat = s.take(tq * d);
        let mut qs = s.take(tq * dk);
        let mut ks = s.take(tk * dk);
        let mut vs = s.take(tk * dk);
        let mut scores = s.take(tq * tk);
        let mut attn = s.take(tq * tk);
        let mut head_out = s.take(tq * dk);
        for h in 0..self.heads {
            slice_cols(&q, tq, d, h * dk, dk, &mut qs);
            slice_cols(k, tk, d, h * dk, dk, &mut ks);
            slice_cols(v, tk, d, h * dk, dk, &mut vs);
            rows.matmul_transpose_b_into(&qs, &ks, None, dk, tk, ctx.pool, &mut scores);
            kernels::scale_fwd(&mut scores, scale);
            kernels::softmax_fwd(&scores, mask, tq, tk, &mut attn);
            rows.matmul_into(&attn, &vs, None, tk, dk, ctx.pool, &mut head_out);
            place_cols(&mut concat, tq, d, h * dk, dk, &head_out);
        }
        self.wo.infer(&concat, rows, Act::None, ctx, out);
        for buf in [q, concat, qs, ks, vs, scores, attn, head_out] {
            ctx.scratch.put(buf);
        }
    }
}

/// Key/value operand of [`MultiHeadAttention::infer`].
#[derive(Debug, Clone, Copy)]
pub enum KvInput<'a> {
    /// The raw `tk × d` key/value input, projected inside the call.
    Raw(&'a [f32]),
    /// K and V projections (`tk × d` each) precomputed by
    /// [`MultiHeadAttention::project_kv`]. Values are unchanged — the
    /// projections are deterministic functions of the key/value input.
    Projected(&'a [f32], &'a [f32]),
}

/// Copy columns `c0..c0+width` of a `rows × src_cols` matrix into a dense
/// `rows × width` buffer — the value layout of the tape's `slice_cols`.
fn slice_cols(src: &[f32], rows: usize, src_cols: usize, c0: usize, width: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), rows * width);
    for i in 0..rows {
        dst[i * width..(i + 1) * width]
            .copy_from_slice(&src[i * src_cols + c0..i * src_cols + c0 + width]);
    }
}

/// Inverse of [`slice_cols`]: write a dense `rows × width` block into
/// columns `c0..c0+width` of a `rows × dst_cols` buffer — the value layout
/// of the tape's `concat_cols`.
fn place_cols(dst: &mut [f32], rows: usize, dst_cols: usize, c0: usize, width: usize, src: &[f32]) {
    debug_assert_eq!(src.len(), rows * width);
    for i in 0..rows {
        dst[i * dst_cols + c0..i * dst_cols + c0 + width]
            .copy_from_slice(&src[i * width..(i + 1) * width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferScratch;
    use crate::layers::transformer::causal_mask;
    use crate::pool::RotomPool;
    use crate::tensor::Tensor;
    use rotom_rng::SeedableRng;

    #[test]
    fn self_attention_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::full(5, 8, 0.1));
        let y = attn.forward(&mut tape, x, x, None, &store);
        assert_eq!((tape.value(y).rows(), tape.value(y).cols()), (5, 8));
    }

    #[test]
    fn infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let d = 8;
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", d, 2);
        let pool = RotomPool::new(1);
        let mut scratch = InferScratch::new();
        let mut ctx = InferCtx {
            store: &store,
            pool: &pool,
            scratch: &mut scratch,
        };
        for &(tq, tk, masked) in &[
            (1usize, 1usize, false),
            (5, 5, true),
            (3, 7, false),
            (9, 4, false),
        ] {
            let qx: Vec<f32> = (0..tq * d)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.07)
                .collect();
            let kx: Vec<f32> = (0..tk * d)
                .map(|i| ((i * 29 % 19) as f32 - 9.0) * 0.05)
                .collect();
            let mask = masked.then(|| causal_mask(tq, tk));
            let mut tape = Tape::new();
            let qn = tape.input(Tensor::from_vec(qx.clone(), tq, d));
            let kn = tape.input(Tensor::from_vec(kx.clone(), tk, d));
            let y = attn.forward(&mut tape, qn, kn, mask.as_ref(), ctx.store);
            let expect = tape.value(y).data().to_vec();

            let mut got = vec![0.0f32; tq * d];
            let all = Rows::all(tq);
            let m = mask.as_ref().map(|m| m.data());
            attn.infer(&qx, all, KvInput::Raw(&kx), m, &mut ctx, &mut got);
            assert_eq!(expect, got, "tq={tq} tk={tk} masked={masked}");

            // Projected K/V change nothing.
            let mut k = vec![0.0f32; tk * d];
            let mut v = vec![0.0f32; tk * d];
            attn.project_kv(&kx, &ctx, &mut k, &mut v);
            let kv = KvInput::Projected(&k, &v);
            attn.infer(&qx, all, kv, m, &mut ctx, &mut got);
            assert_eq!(expect, got, "projected tq={tq} tk={tk}");
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With a causal mask, position 0's output must not change when later
        // positions change.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
        let run = |x: Tensor, store: &ParamStore| {
            let mut tape = Tape::new();
            let xin = tape.input(x);
            let mask = causal_mask(3, 3);
            let y = attn.forward(&mut tape, xin, xin, Some(&mask), store);
            tape.value(y).row_slice(0).to_vec()
        };
        let mut a = vec![0.1f32; 24];
        let base = run(Tensor::from_vec(a.clone(), 3, 8), &store);
        for v in &mut a[8..] {
            *v = 0.9;
        }
        let perturbed = run(Tensor::from_vec(a, 3, 8), &store);
        for (b, p) in base.iter().zip(&perturbed) {
            assert!((b - p).abs() < 1e-6, "future token leaked into position 0");
        }
    }
}
