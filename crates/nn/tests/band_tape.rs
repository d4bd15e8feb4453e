//! The tape's `[CLS]` band against the full pass.
//!
//! `TransformerEncoder::encode_cls_with` runs the last encoder layer and the
//! final norm on the `Rows::band(t, 0)` band only. These tests train one
//! step at a time through it and through the full pass
//! (`forward_with` + `slice_rows(h, 0, 1)`) from identical parameters, and
//! require the same results:
//!
//! * the `[CLS]` value and the loss, bit for bit;
//! * the dropout RNG state after the forward (the band draws the full
//!   pass's masks);
//! * every parameter gradient, compared as `f32`;
//! * every parameter after an Adam step, bit for bit.
//!
//! Gradients are compared as `f32` rather than as bits because of the sign
//! of zero. In the full pass, the gradient rows outside the band are
//! computed, and they come out as `+0` or `−0` (a zero upstream gradient
//! times a negative weight is `−0`). The band pass never computes those
//! rows: its zero padding is `+0`. Adding either zero to a nonzero partial
//! sum leaves the sum unchanged, so every nonzero gradient is identical.
//! Only a sum that is exactly zero may carry the other sign, and Adam maps
//! `±0` to the same update.
//!
//! Lengths straddle the `MR`-row tile (1, 3, 4, 5, 8, 9) and the
//! `SMALL_FLOPS` GEMM threshold (31–33 at `d_model = 32`); the wide
//! configuration also crosses `PAR_MIN_FLOPS`, so with `ROTOM_THREADS` above
//! 1 the full pass fans out while the band runs serially.

use rotom_nn::{
    Adam, Embedding, FwdCtx, Linear, ParamStore, Tape, TransformerConfig, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;

const LENGTHS: [usize; 11] = [1, 3, 4, 5, 8, 9, 31, 32, 33, 39, 72];
const CLASSES: usize = 3;
const DROPOUT: f32 = 0.2;

struct Model {
    store: ParamStore,
    enc: TransformerEncoder,
    head: Linear,
    seg: Embedding,
    dup: Embedding,
}

fn build(cfg: &TransformerConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(0xba4d);
    let mut store = ParamStore::new();
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
    let head = Linear::new(&mut store, &mut rng, "head", cfg.d_model, CLASSES);
    let seg = Embedding::new(&mut store, &mut rng, "seg", 2, cfg.d_model);
    let dup = Embedding::new(&mut store, &mut rng, "dup", 2, cfg.d_model);
    Model {
        store,
        enc,
        head,
        seg,
        dup,
    }
}

fn configs() -> [TransformerConfig; 2] {
    let mut tiny = TransformerConfig::tiny(60);
    tiny.max_len = 80;
    let wide = TransformerConfig {
        vocab: 60,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        layers: 2,
        max_len: 80,
        dropout: DROPOUT,
    };
    [tiny, wide]
}

/// What one training step produced.
#[derive(Debug)]
struct Step {
    cls: Vec<u32>,
    loss: u32,
    rng: [u64; 4],
    grads: Vec<f32>,
    params: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One forward/backward/Adam step on `ids`, through the band
/// (`encode_cls_with`) or the full pass.
fn step(
    m: &mut Model,
    opt: &mut Adam,
    rng: &mut StdRng,
    ids: &[usize],
    extras: bool,
    train: bool,
    band: bool,
) -> Step {
    let t = ids.len();
    let segs: Vec<usize> = (0..t).map(|i| usize::from(i >= t / 2)).collect();
    let dups: Vec<usize> = ids.iter().map(|&id| id % 2).collect();
    let tables: Vec<(&Embedding, &[usize])> = if extras {
        vec![(&m.seg, &segs), (&m.dup, &dups)]
    } else {
        Vec::new()
    };
    let mut tape = Tape::new();
    let mut ctx = if train {
        FwdCtx::train(&m.store, DROPOUT, rng)
    } else {
        FwdCtx::eval(&m.store)
    };
    let cls = if band {
        m.enc.encode_cls_with(&mut tape, ids, &tables, &mut ctx)
    } else {
        let h = m.enc.forward_with(&mut tape, ids, &tables, &mut ctx);
        tape.slice_rows(h, 0, 1)
    };
    let logits = m.head.forward(&mut tape, cls, &m.store);
    let mut target = [0.0f32; CLASSES];
    target[t % CLASSES] = 1.0;
    let loss = tape.cross_entropy(logits, &target);
    let cls = bits(tape.value(cls).data());
    let loss_bits = tape.value(loss).item().to_bits();
    m.store.zero_grad();
    tape.backward(loss, &mut m.store);
    let grads = m.store.flat_grads();
    opt.step(&mut m.store);
    Step {
        cls,
        loss: loss_bits,
        rng: rng.state(),
        grads,
        params: bits(&m.store.flat_values()),
    }
}

fn check(extras: bool, train: bool) {
    for cfg in configs() {
        let mut band = build(&cfg);
        let mut full = build(&cfg);
        let (mut opt_band, mut opt_full) = (Adam::new(1e-2), Adam::new(1e-2));
        let mut rng_band = StdRng::seed_from_u64(5);
        let mut rng_full = StdRng::seed_from_u64(5);
        // One model trains through every length in turn, so later steps
        // start from parameters (and Adam moments) earlier steps moved.
        for t in LENGTHS {
            let ids: Vec<usize> = (0..t).map(|i| (i * 7 + t) % cfg.vocab).collect();
            let what = format!(
                "d_model={} t={t} extras={extras} train={train}",
                cfg.d_model
            );
            let b = step(
                &mut band,
                &mut opt_band,
                &mut rng_band,
                &ids,
                extras,
                train,
                true,
            );
            let f = step(
                &mut full,
                &mut opt_full,
                &mut rng_full,
                &ids,
                extras,
                train,
                false,
            );
            assert_eq!(b.cls, f.cls, "[CLS] bits, {what}");
            assert_eq!(b.loss, f.loss, "loss bits, {what}");
            assert_eq!(b.rng, f.rng, "dropout RNG state, {what}");
            assert_eq!(b.grads.len(), f.grads.len());
            for (i, (gb, gf)) in b.grads.iter().zip(&f.grads).enumerate() {
                assert!(gb == gf, "gradient {i}: band {gb:e} vs full {gf:e}, {what}");
            }
            assert_eq!(b.params, f.params, "post-Adam parameter bits, {what}");
        }
    }
}

#[test]
fn band_matches_full_pass_in_eval_mode() {
    check(false, false);
}

#[test]
fn band_matches_full_pass_in_eval_mode_with_extras() {
    check(true, false);
}

#[test]
fn band_matches_full_pass_with_dropout() {
    check(false, true);
}

#[test]
fn band_matches_full_pass_with_dropout_and_extras() {
    check(true, true);
}
