//! Fully connected layer.

use super::InferCtx;
use crate::graph::{NodeId, Tape};
use crate::init::Initializer;
use crate::kernels::{self, Act, Rows};
use crate::params::{ParamId, ParamStore, QuantMode};
use rotom_rng::rngs::StdRng;

/// `y = x W + b` with Xavier-initialized `W` and zero-initialized `b`.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a `in_dim -> out_dim` linear layer (with bias).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self::with_bias(store, rng, name, in_dim, out_dim, true)
    }

    /// Register a linear layer, optionally without bias.
    pub fn with_bias(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.alloc(
            format!("{name}.w"),
            in_dim,
            out_dim,
            Initializer::XavierUniform,
            rng,
        );
        let b = bias.then(|| store.alloc(format!("{name}.b"), 1, out_dim, Initializer::Zeros, rng));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight and (optional) bias parameter ids.
    pub fn params(&self) -> (crate::params::ParamId, Option<crate::params::ParamId>) {
        (self.w, self.b)
    }

    /// Apply the layer to an `m x in_dim` node.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        let w = tape.param(self.w, store);
        let y = tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let bn = tape.param(b, store);
                tape.add_row(y, bn)
            }
            None => y,
        }
    }

    /// Forward-only `y = act(x·W + b)` for `rows` into `out` (`x`:
    /// `rows.len × in_dim`, `out`: `rows.len × out_dim`). On the f32 tier it
    /// is bit-identical to the same rows of the tape's `matmul → add_row →
    /// gelu` chain over all `rows.full` rows.
    ///
    /// Panel use and the i8 tier are decided on the full shape: packed
    /// panels only above the tiled threshold (as in `Tape::matmul`), and the
    /// opt-in quantized tier only for GEMMs the f32 path would tile anyway,
    /// so tiny heads and meta-models never pay quantization overhead and a
    /// band always takes the same tier as the full pass.
    pub fn infer(&self, x: &[f32], rows: Rows, act: Act, ctx: &InferCtx<'_>, out: &mut [f32]) {
        let store = ctx.store;
        let (k, n) = (self.in_dim, self.out_dim);
        let w = store.value(self.w);
        let packs = store.packs(self.w);
        let bias = self.b.map(|b| store.value(b).data());
        let above_small = rows.full * k * n >= kernels::SMALL_FLOPS;
        if store.quant_mode() == QuantMode::I8 && above_small {
            if let Some(qb) = packs.quant(w) {
                if rows.is_all() {
                    kernels::matmul_bias_act_i8_into(
                        x, qb, bias, act, rows.len, k, n, ctx.pool, out,
                    );
                } else {
                    kernels::matmul_band_i8_into(x, qb, bias, act, rows.len, k, n, out);
                }
                return;
            }
        }
        let pk = if above_small { packs.direct(w) } else { None };
        if rows.is_all() {
            kernels::matmul_bias_act_into(
                x,
                w.data(),
                pk,
                bias,
                act,
                rows.len,
                k,
                n,
                ctx.pool,
                out,
            );
        } else {
            kernels::matmul_band_into(x, w.data(), pk, rows.full, rows.len, k, n, out);
            kernels::bias_act_apply(out, rows.len, n, bias, act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rotom_rng::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 7);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(3, 4));
        let y = lin.forward(&mut tape, x, &store);
        assert_eq!((tape.value(y).rows(), tape.value(y).cols()), (3, 7));
    }

    #[test]
    fn bias_free_layer_maps_zero_to_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::with_bias(&mut store, &mut rng, "l", 4, 4, false);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(1, 4));
        let y = lin.forward(&mut tape, x, &store);
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0));
    }
}
