//! Neural network layers built on the autodiff [`Tape`](crate::graph::Tape).
//!
//! Every layer owns [`ParamId`](crate::params::ParamId)s registered in a
//! shared [`ParamStore`] and exposes a `forward`
//! that appends nodes to a caller-provided tape, plus (for the layers the
//! inference plane runs) one tape-free `infer` over a
//! [`Rows`](crate::kernels::Rows) selection, bit-identical to the same rows
//! of `forward` in eval mode. Layers are stateless between calls; all
//! trainable state lives in the store.

mod attention;
mod embedding;
mod linear;
mod norm;
mod rnn;
mod transformer;

pub use attention::{KvInput, MultiHeadAttention};
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use rnn::Gru;
pub use transformer::{
    causal_mask, DecoderKvCache, DecoderLayer, EncoderLayer, FeedForward, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};

use crate::infer::InferScratch;
use crate::params::ParamStore;
use crate::pool::RotomPool;
use rotom_rng::rngs::StdRng;

/// Per-call context of the tape-free `infer` methods: the parameter store,
/// the pool full-shape GEMMs fan out on, and the activation workspace.
pub struct InferCtx<'a> {
    /// Parameter store the layers read weights from.
    pub store: &'a ParamStore,
    /// Worker pool for full-pass GEMMs (bands always run serially).
    pub pool: &'a RotomPool,
    /// Recycled activation buffers.
    pub scratch: &'a mut InferScratch,
}

/// Per-forward context: parameter store plus (optionally) a dropout source.
///
/// When `rng` is `None` the forward pass is deterministic (evaluation mode);
/// dropout layers become identity.
pub struct FwdCtx<'a> {
    /// Parameter store the layers read weights from.
    pub store: &'a ParamStore,
    /// Dropout probability applied inside layers that support it.
    pub dropout: f32,
    /// RNG for dropout masks; `None` disables dropout (eval mode).
    pub rng: Option<&'a mut StdRng>,
}

impl<'a> FwdCtx<'a> {
    /// Evaluation-mode context (no dropout).
    pub fn eval(store: &'a ParamStore) -> Self {
        Self {
            store,
            dropout: 0.0,
            rng: None,
        }
    }

    /// Training-mode context with dropout probability `p`.
    pub fn train(store: &'a ParamStore, p: f32, rng: &'a mut StdRng) -> Self {
        Self {
            store,
            dropout: p,
            rng: Some(rng),
        }
    }

    /// Draw a dropout mask of `n` Bernoulli(1-p) bits, or `None` in eval mode
    /// or when `p == 0`.
    pub fn dropout_mask(&mut self, n: usize) -> Option<Vec<bool>> {
        if self.dropout <= 0.0 {
            return None;
        }
        let p = self.dropout;
        self.rng.as_deref_mut().map(|rng| {
            (0..n)
                .map(|_| rotom_rng::RngExt::random_bool(rng, (1.0 - p) as f64))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn eval_ctx_never_produces_masks() {
        let store = ParamStore::new();
        let mut ctx = FwdCtx::eval(&store);
        assert!(ctx.dropout_mask(16).is_none());
    }

    #[test]
    fn zero_dropout_train_ctx_skips_masks() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = FwdCtx::train(&store, 0.0, &mut rng);
        assert!(ctx.dropout_mask(16).is_none());
    }

    #[test]
    fn train_ctx_mask_has_expected_density() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = FwdCtx::train(&store, 0.25, &mut rng);
        let mask = ctx.dropout_mask(4000).unwrap();
        let kept = mask.iter().filter(|&&b| b).count();
        // Keep probability 0.75: expect ~3000 ± noise.
        assert!((2800..3200).contains(&kept), "kept {kept}");
    }
}
