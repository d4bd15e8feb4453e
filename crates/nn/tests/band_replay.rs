//! Band replay at every band, for every layer with an `infer` entry point.
//!
//! A [`Rows`] band must reproduce the same rows of the full `infer` call bit
//! for bit — the property the [CLS] scorer and the last-row decoder rely on.
//! Every [`band_rows`](rotom_nn::kernels::band_rows) band of each pass is
//! checked (not just the first or last), at d_model 64 with sequence lengths
//! whose GEMMs straddle `SMALL_FLOPS` and `PAR_MIN_FLOPS`, at pool widths 1
//! and 8, on the f32 and i8 tiers. On the f32 tier the full pass must also
//! match the tape forward.

use rotom_nn::kernels::{Act, Rows, PAR_MIN_FLOPS, SMALL_FLOPS};
use rotom_nn::{
    causal_mask, DecoderLayer, EncoderLayer, FeedForward, FwdCtx, InferCtx, InferScratch, KvInput,
    Linear, MultiHeadAttention, ParamStore, QuantMode, RotomPool, Tape, Tensor, TransformerConfig,
};
use rotom_rng::{rngs::StdRng, RngExt, SeedableRng};

const D: usize = 64;
const SEQ_LENS: [usize; 6] = [1, 3, 4, 5, 17, 70];
const MEM_ROWS: usize = 9;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        vocab: 16,
        d_model: D,
        heads: 4,
        d_ff: 128,
        layers: 1,
        max_len: 128,
        dropout: 0.0,
    }
}

fn random(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// Run `infer` over all `t` rows and over every band of them, at pool widths
/// 1 and 8, and require each band to equal its rows of the full pass. Returns
/// the full pass at width 1.
fn assert_every_band(
    what: &str,
    store: &ParamStore,
    t: usize,
    out_w: usize,
    infer: impl Fn(Rows, &mut InferCtx<'_>, &mut [f32]),
) -> Vec<f32> {
    let mut first = None;
    for threads in [1, 8] {
        let pool = RotomPool::new(threads);
        let mut scratch = InferScratch::new();
        let mut ctx = InferCtx {
            store,
            pool: &pool,
            scratch: &mut scratch,
        };
        let mut full = vec![0.0f32; t * out_w];
        infer(Rows::all(t), &mut ctx, &mut full);
        let mut row = 0;
        while row < t {
            let rows = Rows::band(t, row);
            let mut band = vec![0.0f32; rows.len * out_w];
            infer(rows, &mut ctx, &mut band);
            assert_eq!(
                band,
                full[rows.span(out_w)],
                "{what}: t={t} band {rows:?} threads={threads} quant={:?}",
                store.quant_mode()
            );
            row = rows.start + rows.len;
        }
        match &first {
            None => first = Some(full),
            Some(f) => assert_eq!(f, &full, "{what}: t={t} pool width changed values"),
        }
    }
    first.unwrap()
}

/// Both tiers of one layer: every band on f32 and i8, and the f32 full pass
/// against the tape forward.
fn check_tiers(
    what: &str,
    store: &mut ParamStore,
    t: usize,
    out_w: usize,
    tape_forward: impl Fn(&ParamStore) -> Vec<f32>,
    infer: impl Fn(Rows, &mut InferCtx<'_>, &mut [f32]),
) {
    store.set_quant_mode(QuantMode::F32);
    let full = assert_every_band(what, store, t, out_w, &infer);
    assert_eq!(full, tape_forward(store), "{what}: t={t} infer vs tape");
    store.set_quant_mode(QuantMode::I8);
    assert_every_band(what, store, t, out_w, &infer);
    store.set_quant_mode(QuantMode::F32);
}

#[test]
fn sequence_lengths_straddle_dispatch_thresholds() {
    let flops = |t: usize| t * D * D;
    assert!(flops(SEQ_LENS[0]) < SMALL_FLOPS);
    assert!(flops(17) >= SMALL_FLOPS && flops(17) < PAR_MIN_FLOPS);
    assert!(flops(70) >= PAR_MIN_FLOPS);
}

#[test]
fn linear_and_feed_forward_replay_every_band() {
    let mut rng = StdRng::seed_from_u64(0xba1);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, &mut rng, "lin", D, 96);
    let ff = FeedForward::new(&mut store, &mut rng, "ff", D, 128);
    for t in SEQ_LENS {
        let x = random(&mut rng, t * D);
        let x_tensor = Tensor::from_vec(x.clone(), t, D);
        for act in [Act::None, Act::Gelu] {
            check_tiers(
                &format!("linear {act:?}"),
                &mut store,
                t,
                96,
                |store| {
                    let mut tape = Tape::new();
                    let xn = tape.input(x_tensor.clone());
                    let mut y = lin.forward(&mut tape, xn, store);
                    if act == Act::Gelu {
                        y = tape.gelu(y);
                    }
                    tape.value(y).data().to_vec()
                },
                |rows, ctx, out| lin.infer(&x[rows.span(D)], rows, act, ctx, out),
            );
        }
        check_tiers(
            "feed-forward",
            &mut store,
            t,
            D,
            |store| {
                let mut tape = Tape::new();
                let xn = tape.input(x_tensor.clone());
                let y = ff.forward(&mut tape, xn, store);
                tape.value(y).data().to_vec()
            },
            |rows, ctx, out| ff.infer(&x[rows.span(D)], rows, ctx, out),
        );
    }
}

#[test]
fn attention_replays_every_band() {
    let mut rng = StdRng::seed_from_u64(0xba2);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", D, 4);
    for t in SEQ_LENS {
        let x = random(&mut rng, t * D);
        let mem = random(&mut rng, MEM_ROWS * D);
        let mask = causal_mask(t, t);
        // Causal self-attention with raw K/V input.
        check_tiers(
            "self-attention",
            &mut store,
            t,
            D,
            |store| {
                let mut tape = Tape::new();
                let xn = tape.input(Tensor::from_vec(x.clone(), t, D));
                let y = attn.forward(&mut tape, xn, xn, Some(&mask), store);
                tape.value(y).data().to_vec()
            },
            |rows, ctx, out| {
                let m = &mask.data()[rows.span(t)];
                let q = &x[rows.span(D)];
                attn.infer(q, rows, KvInput::Raw(&x), Some(m), ctx, out)
            },
        );
        // Unmasked cross-attention over projected K/V.
        check_tiers(
            "cross-attention",
            &mut store,
            t,
            D,
            |store| {
                let mut tape = Tape::new();
                let xn = tape.input(Tensor::from_vec(x.clone(), t, D));
                let mn = tape.input(Tensor::from_vec(mem.clone(), MEM_ROWS, D));
                let y = attn.forward(&mut tape, xn, mn, None, store);
                tape.value(y).data().to_vec()
            },
            |rows, ctx, out| {
                let mut k = vec![0.0f32; mem.len()];
                let mut v = vec![0.0f32; mem.len()];
                attn.project_kv(&mem, ctx, &mut k, &mut v);
                let kv = KvInput::Projected(&k, &v);
                attn.infer(&x[rows.span(D)], rows, kv, None, ctx, out)
            },
        );
    }
}

#[test]
fn encoder_and_decoder_layers_replay_every_band() {
    let mut rng = StdRng::seed_from_u64(0xba3);
    let mut store = ParamStore::new();
    let enc = EncoderLayer::new(&mut store, &mut rng, "enc", &cfg());
    let dec = DecoderLayer::new(&mut store, &mut rng, "dec", &cfg());
    for t in SEQ_LENS {
        let x = random(&mut rng, t * D);
        let mem = random(&mut rng, MEM_ROWS * D);
        let mask = causal_mask(t, t);
        check_tiers(
            "encoder layer",
            &mut store,
            t,
            D,
            |store| {
                let mut tape = Tape::new();
                let xn = tape.input(Tensor::from_vec(x.clone(), t, D));
                let y = enc.forward(&mut tape, xn, Rows::all(t), &mut FwdCtx::eval(store));
                tape.value(y).data().to_vec()
            },
            |rows, ctx, out| enc.infer(&x, rows, ctx, out),
        );
        check_tiers(
            "decoder layer",
            &mut store,
            t,
            D,
            |store| {
                let mut tape = Tape::new();
                let xn = tape.input(Tensor::from_vec(x.clone(), t, D));
                let mn = tape.input(Tensor::from_vec(mem.clone(), MEM_ROWS, D));
                let y = dec.forward(&mut tape, xn, mn, &mask, &mut FwdCtx::eval(store));
                tape.value(y).data().to_vec()
            },
            |rows, ctx, out| {
                let m = &mask.data()[rows.span(t)];
                dec.infer(&x, rows, KvInput::Raw(&mem), m, ctx, out)
            },
        );
    }
}
