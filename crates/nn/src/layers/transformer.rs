//! Transformer encoder / decoder stacks.
//!
//! These are the building blocks of both the target classifier ("TinyLm", the
//! stand-in for RoBERTa/DistilBERT) and the InvDA seq2seq model (the stand-in
//! for T5). Pre-norm residual blocks are used for training stability at small
//! scale.

use super::attention::{KvInput, MultiHeadAttention};
use super::embedding::Embedding;
use super::linear::Linear;
use super::norm::LayerNorm;
use super::{FwdCtx, InferCtx};
use crate::graph::{AttnMask, NodeId, Tape};
use crate::kernels::{self, Act, Rows};
use crate::params::ParamStore;
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;

/// Hyper-parameters shared by encoder and decoder stacks.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Vocabulary size (token embedding rows).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Number of layers.
    pub layers: usize,
    /// Maximum sequence length (positional embedding rows).
    pub max_len: usize,
    /// Dropout probability used in training mode.
    pub dropout: f32,
}

impl TransformerConfig {
    /// A small configuration suitable for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 32,
            heads: 2,
            d_ff: 64,
            layers: 2,
            max_len: 64,
            dropout: 0.1,
        }
    }
}

/// Additive causal mask of shape `tq x tk`: position `i` may attend to
/// keys `0..=i + (tk - tq)`.
pub fn causal_mask(tq: usize, tk: usize) -> AttnMask {
    let mut m = Tensor::zeros(tq, tk);
    causal_mask_into(tq, tk, m.data_mut());
    m
}

/// Write the [`causal_mask`] values into `out` (`tq × tk`, fully
/// overwritten) — the inference plane's allocation-free form.
fn causal_mask_into(tq: usize, tk: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), tq * tk);
    let offset = tk - tq;
    for (i, row) in out.chunks_exact_mut(tk.max(1)).enumerate() {
        let (visible, hidden) = row.split_at_mut(i + offset + 1);
        visible.fill(0.0);
        hidden.fill(-1e9);
    }
}

/// Position-wise feed-forward block: `Linear -> GELU -> Linear`.
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// Register a `d_model -> d_ff -> d_model` block.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        d_ff: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.ff1"), d_model, d_ff),
            l2: Linear::new(store, rng, &format!("{name}.ff2"), d_ff, d_model),
        }
    }

    /// Apply the block.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        let h = self.l1.forward(tape, x, store);
        let h = tape.gelu(h);
        self.l2.forward(tape, h, store)
    }

    /// Forward-only application to `rows` (`x`: `rows.len × d_model`, `out`
    /// likewise), bit-identical to the same rows of
    /// [`forward`](Self::forward) (the GELU is fused into the first GEMM's
    /// epilogue, which applies the same per-element ops).
    pub fn infer(&self, x: &[f32], rows: Rows, ctx: &mut InferCtx<'_>, out: &mut [f32]) {
        let mut h = ctx.scratch.take(rows.len * self.l1.out_dim());
        self.l1.infer(x, rows, Act::Gelu, ctx, &mut h);
        self.l2.infer(&h, rows, Act::None, ctx, out);
        ctx.scratch.put(h);
    }
}

/// Pre-norm Transformer encoder layer.
pub struct EncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff: FeedForward,
    ln2: LayerNorm,
}

impl EncoderLayer {
    /// Register one encoder layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: &TransformerConfig,
    ) -> Self {
        Self {
            attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.attn"),
                cfg.d_model,
                cfg.heads,
            ),
            ln1: LayerNorm::new(store, rng, &format!("{name}.ln1"), cfg.d_model),
            ff: FeedForward::new(store, rng, &format!("{name}.ff"), cfg.d_model, cfg.d_ff),
            ln2: LayerNorm::new(store, rng, &format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// Apply the layer to the `rows.full × d` node `x`, computing the
    /// `rows` output rows (a [`Tape::band`] node unless `rows` is every
    /// row). As in [`infer`](Self::infer), the first layer norm and the K/V
    /// projections run over all rows; the queries, the attention, the
    /// residuals, `ln2` and the FFN run over the band only. Dropout draws
    /// the full pass's mask, so the RNG stream does not depend on `rows`.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, rows: Rows, ctx: &mut FwdCtx<'_>) -> NodeId {
        let n1 = self.ln1.forward(tape, x, ctx.store);
        let q = tape.band(n1, rows);
        let a = self.attn.forward(tape, q, n1, None, ctx.store);
        let a = apply_dropout(tape, a, ctx);
        let x = tape.band(x, rows);
        let x = tape.add(x, a);
        let n2 = self.ln2.forward(tape, x, ctx.store);
        let f = self.ff.forward(tape, n2, ctx.store);
        let f = apply_dropout(tape, f, ctx);
        tape.add(x, f)
    }

    /// Forward-only application: from the full `rows.full × d` input `x`,
    /// compute the `rows` output rows into `out` (`rows.len × d`).
    /// Bit-identical to the same rows of [`forward`](Self::forward) in eval
    /// mode (dropout at probability 0 is the identity and consumes no
    /// randomness). The first layer norm runs over all rows because every
    /// query row attends to every key; everything after the attention is
    /// per-row, and its norms reuse the first norm's buffer.
    pub fn infer(&self, x: &[f32], rows: Rows, ctx: &mut InferCtx<'_>, out: &mut [f32]) {
        let d = self.attn.d_model();
        let mut n = ctx.scratch.take(x.len());
        let mut a = ctx.scratch.take(rows.len * d);
        self.ln1.infer(x, ctx, &mut n);
        let q = &n[rows.span(d)];
        self.attn
            .infer(q, rows, KvInput::Raw(&n), None, ctx, &mut a);
        kernels::add_fwd(&x[rows.span(d)], &a, out);
        let n2 = &mut n[..rows.len * d];
        self.ln2.infer(out, ctx, n2);
        self.ff.infer(n2, rows, ctx, &mut a);
        kernels::add_assign_fwd(out, &a);
        ctx.scratch.put(n);
        ctx.scratch.put(a);
    }
}

/// Pre-norm Transformer decoder layer with cross-attention.
pub struct DecoderLayer {
    self_attn: MultiHeadAttention,
    ln1: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff: FeedForward,
    ln3: LayerNorm,
}

impl DecoderLayer {
    /// Register one decoder layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: &TransformerConfig,
    ) -> Self {
        Self {
            self_attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.self"),
                cfg.d_model,
                cfg.heads,
            ),
            ln1: LayerNorm::new(store, rng, &format!("{name}.ln1"), cfg.d_model),
            cross_attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.cross"),
                cfg.d_model,
                cfg.heads,
            ),
            ln2: LayerNorm::new(store, rng, &format!("{name}.ln2"), cfg.d_model),
            ff: FeedForward::new(store, rng, &format!("{name}.ff"), cfg.d_model, cfg.d_ff),
            ln3: LayerNorm::new(store, rng, &format!("{name}.ln3"), cfg.d_model),
        }
    }

    /// Apply the layer. `x` is the `Tq x d` decoder state, `memory` the
    /// encoder output, `self_mask` the causal mask.
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: NodeId,
        memory: NodeId,
        self_mask: &AttnMask,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let n1 = self.ln1.forward(tape, x, ctx.store);
        let a = self
            .self_attn
            .forward(tape, n1, n1, Some(self_mask), ctx.store);
        let a = apply_dropout(tape, a, ctx);
        let x = tape.add(x, a);
        let n2 = self.ln2.forward(tape, x, ctx.store);
        let c = self.cross_attn.forward(tape, n2, memory, None, ctx.store);
        let c = apply_dropout(tape, c, ctx);
        let x = tape.add(x, c);
        let n3 = self.ln3.forward(tape, x, ctx.store);
        let f = self.ff.forward(tape, n3, ctx.store);
        let f = apply_dropout(tape, f, ctx);
        tape.add(x, f)
    }

    /// Forward-only application: from the full `rows.full × d` decoder
    /// state `x`, compute the `rows` output rows into `out` (`rows.len × d`).
    /// `cross` is the encoder memory's key/value operand (typically
    /// projected once per generation, see [`DecoderKvCache`]); `self_mask`
    /// holds the computed rows of the causal mask (`rows.len × rows.full`).
    /// Bit-identical to the same rows of [`forward`](Self::forward) in eval
    /// mode.
    pub fn infer(
        &self,
        x: &[f32],
        rows: Rows,
        cross: KvInput<'_>,
        self_mask: &[f32],
        ctx: &mut InferCtx<'_>,
        out: &mut [f32],
    ) {
        let d = self.self_attn.d_model();
        let mut n = ctx.scratch.take(x.len());
        let mut a = ctx.scratch.take(rows.len * d);
        self.ln1.infer(x, ctx, &mut n);
        let q = &n[rows.span(d)];
        let self_kv = KvInput::Raw(&n);
        self.self_attn
            .infer(q, rows, self_kv, Some(self_mask), ctx, &mut a);
        kernels::add_fwd(&x[rows.span(d)], &a, out);
        // The per-row norms after self-attention reuse the first norm's
        // buffer.
        let nb = &mut n[..rows.len * d];
        self.ln2.infer(out, ctx, nb);
        self.cross_attn.infer(nb, rows, cross, None, ctx, &mut a);
        kernels::add_assign_fwd(out, &a);
        self.ln3.infer(out, ctx, nb);
        self.ff.infer(nb, rows, ctx, &mut a);
        kernels::add_assign_fwd(out, &a);
        ctx.scratch.put(n);
        ctx.scratch.put(a);
    }
}

/// Dropout on `x`. On a band node the mask is drawn for all `rows.full`
/// rows of the pass and the band's rows are kept, so the RNG stream is the
/// full pass's.
fn apply_dropout(tape: &mut Tape, x: NodeId, ctx: &mut FwdCtx<'_>) -> NodeId {
    let rows = tape.rows(x);
    let d = tape.value(x).cols();
    let mask = ctx.dropout_mask(rows.full * d).map(|mut bits| {
        let span = rows.span(d);
        bits.truncate(span.end);
        bits.drain(..span.start);
        bits
    });
    tape.dropout(x, ctx.dropout, mask)
}

/// Token + positional embedding followed by a stack of encoder layers and a
/// final layer norm.
pub struct TransformerEncoder {
    tok: Embedding,
    pos: Embedding,
    layers: Vec<EncoderLayer>,
    ln_f: LayerNorm,
    cfg: TransformerConfig,
}

impl TransformerEncoder {
    /// Register the full encoder stack.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: TransformerConfig,
    ) -> Self {
        let tok = Embedding::new(store, rng, &format!("{name}.tok"), cfg.vocab, cfg.d_model);
        let pos = Embedding::new(store, rng, &format!("{name}.pos"), cfg.max_len, cfg.d_model);
        let layers = (0..cfg.layers)
            .map(|i| EncoderLayer::new(store, rng, &format!("{name}.enc{i}"), &cfg))
            .collect();
        let ln_f = LayerNorm::new(store, rng, &format!("{name}.lnf"), cfg.d_model);
        Self {
            tok,
            pos,
            layers,
            ln_f,
            cfg,
        }
    }

    /// Configuration used at construction.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Token-embedding parameter id (for weight tying).
    pub fn token_table(&self) -> crate::params::ParamId {
        self.tok.table()
    }

    /// Encode `ids` (truncated to `max_len`) into a `T x d` node.
    pub fn forward(&self, tape: &mut Tape, ids: &[usize], ctx: &mut FwdCtx<'_>) -> NodeId {
        self.forward_with(tape, ids, &[], ctx)
    }

    /// Encode with additional input-feature embeddings (BERT-style segment
    /// ids, duplicate-token flags, …): each `(table, feature_ids)` pair is
    /// looked up and added to the token + position embeddings. Feature id
    /// slices must be at least as long as `ids`.
    pub fn forward_with(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let (x, t) = self.embed(tape, ids, extras, ctx);
        self.forward_rows(tape, x, Rows::all(t), ctx)
    }

    /// Encode and return the first-token ([CLS]) representation as `1 x d`.
    pub fn encode_cls(&self, tape: &mut Tape, ids: &[usize], ctx: &mut FwdCtx<'_>) -> NodeId {
        self.encode_cls_with(tape, ids, &[], ctx)
    }

    /// [`encode_cls`](Self::encode_cls) with extra input features. Like
    /// [`infer_encode_cls_with`](Self::infer_encode_cls_with), only the
    /// band holding row 0 of the last layer and the final norm is computed.
    /// Its value and the dropout RNG stream are those of row 0 of
    /// [`forward_with`](Self::forward_with), and so are the gradients it
    /// sends back, except that an exactly-zero gradient may differ in sign.
    pub fn encode_cls_with(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let (x, t) = self.embed(tape, ids, extras, ctx);
        let h = self.forward_rows(tape, x, Rows::band(t, 0), ctx);
        tape.slice_rows(h, 0, 1)
    }

    /// Token + positional (+ extra feature) embeddings of `ids` (truncated
    /// to `max_len`) with the input dropout: a `t × d` node, and `t`.
    fn embed(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> (NodeId, usize) {
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let positions: Vec<usize> = (0..t).collect();
        let te = self.tok.forward(tape, ctx.store, ids);
        let pe = self.pos.forward(tape, ctx.store, &positions);
        let mut x = tape.add(te, pe);
        for (table, feats) in extras {
            assert!(feats.len() >= t, "feature ids shorter than input");
            let fe = table.forward(tape, ctx.store, &feats[..t]);
            x = tape.add(x, fe);
        }
        (apply_dropout(tape, x, ctx), t)
    }

    /// The tape twin of [`infer_rows`](Self::infer_rows): run the layers
    /// and the final norm over the `t × d` node `x`, computing only `rows`
    /// of the last layer and the norm.
    fn forward_rows(
        &self,
        tape: &mut Tape,
        mut x: NodeId,
        rows: Rows,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let lr = if i == last {
                rows
            } else {
                Rows::all(rows.full)
            };
            x = layer.forward(tape, x, lr, ctx);
        }
        if self.layers.is_empty() {
            x = tape.band(x, rows);
        }
        self.ln_f.forward(tape, x, ctx.store)
    }

    /// Sum token + positional (+ extra feature) embeddings into a fresh
    /// `t × d` buffer, exactly as the tape forward does in eval mode.
    fn infer_embed(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut InferCtx<'_>,
    ) -> (Vec<f32>, usize) {
        let t = ids.len().min(self.cfg.max_len);
        let mut x = infer_token_embed(&self.tok, &self.pos, &ids[..t], ctx);
        let mut fe = ctx.scratch.take(x.len());
        for (table, feats) in extras {
            assert!(feats.len() >= t, "feature ids shorter than input");
            table.infer_gather(ctx.store, &feats[..t], &mut fe);
            kernels::add_assign_fwd(&mut x, &fe);
        }
        ctx.scratch.put(fe);
        (x, t)
    }

    /// Run the layers and the final norm over the `t × d` embeddings `x`
    /// (consumed), computing only `rows` of the last layer and the norm:
    /// earlier layers feed every position into the next attention, so they
    /// run in full. Returns the `rows.len × d` result from the scratch.
    fn infer_rows(&self, mut x: Vec<f32>, rows: Rows, ctx: &mut InferCtx<'_>) -> Vec<f32> {
        let d = self.cfg.d_model;
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let lr = if i == last {
                rows
            } else {
                Rows::all(rows.full)
            };
            let mut y = ctx.scratch.take(lr.len * d);
            layer.infer(&x, lr, ctx, &mut y);
            ctx.scratch.put(std::mem::replace(&mut x, y));
        }
        let band = if self.layers.is_empty() {
            &x[rows.span(d)]
        } else {
            &x[..]
        };
        let mut out = ctx.scratch.take(rows.len * d);
        self.ln_f.infer(band, ctx, &mut out);
        ctx.scratch.put(x);
        out
    }

    /// Forward-only, tape-free encoding of `ids` (truncated to `max_len`):
    /// returns the `t × d` hidden states and `t`. Bit-identical to
    /// [`forward_with`](Self::forward_with) under [`FwdCtx::eval`]. The
    /// returned buffer comes from `ctx.scratch`; hand it back when done.
    pub fn infer_forward_with(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut InferCtx<'_>,
    ) -> (Vec<f32>, usize) {
        let (x, t) = self.infer_embed(ids, extras, ctx);
        (self.infer_rows(x, Rows::all(t), ctx), t)
    }

    /// Forward-only `[CLS]` encoding into `cls_out` (`d_model` floats),
    /// bit-identical to [`encode_cls_with`](Self::encode_cls_with) under
    /// [`FwdCtx::eval`]: only the band holding row 0 of the last layer and
    /// the final norm is computed.
    pub fn infer_encode_cls_with(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut InferCtx<'_>,
        cls_out: &mut [f32],
    ) {
        let (x, t) = self.infer_embed(ids, extras, ctx);
        let band = self.infer_rows(x, Rows::band(t, 0), ctx);
        cls_out.copy_from_slice(&band[..self.cfg.d_model]);
        ctx.scratch.put(band);
    }
}

/// Token + positional embedding of `ids` into a fresh `ids.len() × d`
/// scratch buffer, as the tape's `add(embedding, embedding)` computes it.
fn infer_token_embed(
    tok: &Embedding,
    pos: &Embedding,
    ids: &[usize],
    ctx: &mut InferCtx<'_>,
) -> Vec<f32> {
    let len = ids.len() * tok.dim();
    let mut x = ctx.scratch.take(len);
    tok.infer_gather(ctx.store, ids, &mut x);
    // Positions are 0..t, so the gather is the table's leading rows.
    kernels::add_assign_fwd(&mut x, &ctx.store.value(pos.table()).data()[..len]);
    x
}

/// Decoder stack with output projection tied to its own token embedding.
pub struct TransformerDecoder {
    tok: Embedding,
    pos: Embedding,
    layers: Vec<DecoderLayer>,
    ln_f: LayerNorm,
    proj: Linear,
    cfg: TransformerConfig,
}

impl TransformerDecoder {
    /// Register the full decoder stack.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: TransformerConfig,
    ) -> Self {
        let tok = Embedding::new(store, rng, &format!("{name}.tok"), cfg.vocab, cfg.d_model);
        let pos = Embedding::new(store, rng, &format!("{name}.pos"), cfg.max_len, cfg.d_model);
        let layers = (0..cfg.layers)
            .map(|i| DecoderLayer::new(store, rng, &format!("{name}.dec{i}"), &cfg))
            .collect();
        let ln_f = LayerNorm::new(store, rng, &format!("{name}.lnf"), cfg.d_model);
        let proj = Linear::new(store, rng, &format!("{name}.proj"), cfg.d_model, cfg.vocab);
        Self {
            tok,
            pos,
            layers,
            ln_f,
            proj,
            cfg,
        }
    }

    /// Configuration used at construction.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Decode `ids` against encoder `memory`, returning `T x vocab` logits
    /// (next-token prediction per position, causal).
    pub fn forward(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        memory: NodeId,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let positions: Vec<usize> = (0..t).collect();
        let te = self.tok.forward(tape, ctx.store, ids);
        let pe = self.pos.forward(tape, ctx.store, &positions);
        let mut x = tape.add(te, pe);
        x = apply_dropout(tape, x, ctx);
        let mask = causal_mask(t, t);
        for layer in &self.layers {
            x = layer.forward(tape, x, memory, &mask, ctx);
        }
        let x = self.ln_f.forward(tape, x, ctx.store);
        self.proj.forward(tape, x, ctx.store)
    }

    /// Precompute each layer's cross-attention K/V projections of `memory`
    /// (`mem_rows × d`). During autoregressive decoding the encoder memory
    /// is fixed, so these projections are identical at every step — caching
    /// them is a pure reuse of bit-identical values.
    pub fn infer_prepare(&self, memory: &[f32], ctx: &InferCtx<'_>) -> DecoderKvCache {
        let per_layer = self
            .layers
            .iter()
            .map(|layer| {
                let mut k = vec![0.0f32; memory.len()];
                let mut v = vec![0.0f32; memory.len()];
                layer.cross_attn.project_kv(memory, ctx, &mut k, &mut v);
                (k, v)
            })
            .collect();
        DecoderKvCache { per_layer }
    }

    /// Forward-only decode of the prefix `ids` returning only the LAST
    /// position's logits (`vocab` floats) — the row every sampling and beam
    /// step consumes. Bit-identical to that row of
    /// [`forward`](Self::forward) under [`FwdCtx::eval`]: all but the final
    /// layer run in full (their outputs feed every later position), while
    /// the final layer, final norm, and the vocab projection — by far the
    /// widest GEMM — compute only the last row's band.
    pub fn infer_last_logits(
        &self,
        ids: &[usize],
        cache: &DecoderKvCache,
        ctx: &mut InferCtx<'_>,
        logits_out: &mut [f32],
    ) {
        let (d, vocab) = (self.cfg.d_model, self.cfg.vocab);
        let t = ids.len().min(self.cfg.max_len);
        let mut x = infer_token_embed(&self.tok, &self.pos, &ids[..t], ctx);
        let mut mask = ctx.scratch.take(t * t);
        causal_mask_into(t, t, &mut mask);
        let rows = Rows::band(t, t - 1);
        let last = self.layers.len().saturating_sub(1);
        for (i, (layer, (k, v))) in self.layers.iter().zip(&cache.per_layer).enumerate() {
            let lr = if i == last { rows } else { Rows::all(t) };
            let mut y = ctx.scratch.take(lr.len * d);
            let cross = KvInput::Projected(k, v);
            layer.infer(&x, lr, cross, &mask[lr.span(t)], ctx, &mut y);
            ctx.scratch.put(std::mem::replace(&mut x, y));
        }
        let band = if self.layers.is_empty() {
            &x[rows.span(d)]
        } else {
            &x[..]
        };
        let mut normed = ctx.scratch.take(rows.len * d);
        self.ln_f.infer(band, ctx, &mut normed);
        let mut proj = ctx.scratch.take(rows.len * vocab);
        self.proj.infer(&normed, rows, Act::None, ctx, &mut proj);
        let r = t - 1 - rows.start;
        logits_out.copy_from_slice(&proj[r * vocab..(r + 1) * vocab]);
        for buf in [x, mask, normed, proj] {
            ctx.scratch.put(buf);
        }
    }
}

/// Per-layer cross-attention K/V projections of a fixed encoder memory,
/// built by [`TransformerDecoder::infer_prepare`] and reused across the
/// steps of one generation.
pub struct DecoderKvCache {
    per_layer: Vec<(Vec<f32>, Vec<f32>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferScratch;
    use crate::pool::RotomPool;
    use rotom_rng::SeedableRng;

    #[test]
    fn encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let h = enc.forward(&mut tape, &[1, 2, 3, 4], &mut ctx);
        assert_eq!((tape.value(h).rows(), tape.value(h).cols()), (4, 32));
        let cls = enc.encode_cls(&mut tape, &[1, 2, 3, 4], &mut ctx);
        assert_eq!((tape.value(cls).rows(), tape.value(cls).cols()), (1, 32));
    }

    #[test]
    fn encoder_truncates_to_max_len() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mut cfg = TransformerConfig::tiny(50);
        cfg.max_len = 8;
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let ids: Vec<usize> = (0..20).map(|i| i % 50).collect();
        let h = enc.forward(&mut tape, &ids, &mut ctx);
        assert_eq!(tape.value(h).rows(), 8);
    }

    #[test]
    fn decoder_logit_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
        let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let mem = enc.forward(&mut tape, &[5, 6, 7], &mut ctx);
        let logits = dec.forward(&mut tape, &[1, 2], mem, &mut ctx);
        assert_eq!(
            (tape.value(logits).rows(), tape.value(logits).cols()),
            (2, 50)
        );
    }

    #[test]
    fn encoder_infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut scratch = InferScratch::new();
        for threads in [1usize, 8] {
            let pool = RotomPool::new(threads);
            let mut ictx = InferCtx {
                store: &store,
                pool: &pool,
                scratch: &mut scratch,
            };
            for ids in [
                vec![1usize],
                vec![4, 9, 2],
                (0..23).map(|i| i % 50).collect(),
            ] {
                let mut tape = Tape::new();
                let mut ctx = FwdCtx::eval(&store);
                let h = enc.forward(&mut tape, &ids, &mut ctx);
                let expect = tape.value(h).data().to_vec();
                let cls = enc.encode_cls(&mut tape, &ids, &mut ctx);
                let expect_cls = tape.value(cls).data().to_vec();

                let (got, t) = enc.infer_forward_with(&ids, &[], &mut ictx);
                assert_eq!(t, ids.len());
                assert_eq!(expect, got, "full ids={ids:?} threads={threads}");
                ictx.scratch.put(got);

                let mut got_cls = vec![0.0f32; 32];
                enc.infer_encode_cls_with(&ids, &[], &mut ictx, &mut got_cls);
                assert_eq!(expect_cls, got_cls, "cls ids={ids:?} threads={threads}");
            }
        }
    }

    #[test]
    fn decoder_infer_last_logits_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
        let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
        let src: Vec<usize> = vec![5, 6, 7, 8, 9];
        let mut scratch = InferScratch::new();
        for threads in [1usize, 8] {
            let pool = RotomPool::new(threads);
            let mut ictx = InferCtx {
                store: &store,
                pool: &pool,
                scratch: &mut scratch,
            };
            let (memory, _) = enc.infer_forward_with(&src, &[], &mut ictx);
            let cache = dec.infer_prepare(&memory, &ictx);
            for prefix_len in [1usize, 2, 5, 9] {
                let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 3 + 1) % 50).collect();
                let mut tape = Tape::new();
                let mut ctx = FwdCtx::eval(&store);
                let mem = enc.forward(&mut tape, &src, &mut ctx);
                let logits = dec.forward(&mut tape, &prefix, mem, &mut ctx);
                let expect = tape.value(logits).row_slice(prefix_len - 1).to_vec();

                let mut got = vec![0.0f32; 50];
                dec.infer_last_logits(&prefix, &cache, &mut ictx, &mut got);
                assert_eq!(expect, got, "prefix_len={prefix_len} threads={threads}");
            }
            ictx.scratch.put(memory);
        }
    }

    #[test]
    fn causal_mask_shape_and_pattern() {
        for (tq, tk) in [(1, 1), (3, 3), (2, 5), (4, 4)] {
            let m = causal_mask(tq, tk);
            for i in 0..tq {
                for j in 0..tk {
                    let hidden = j > i + (tk - tq);
                    assert_eq!(m.at(i, j), if hidden { -1e9 } else { 0.0 });
                }
            }
        }
        let m = causal_mask(3, 3);
        assert_eq!(m.at(0, 1), -1e9);
        assert_eq!(m.at(1, 1), 0.0);
        assert_eq!(m.at(2, 0), 0.0);
        // Rectangular (incremental decoding): query may see all earlier keys.
        let m = causal_mask(1, 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }
}
