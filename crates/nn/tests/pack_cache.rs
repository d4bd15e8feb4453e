//! Store-level pack-cache properties.
//!
//! The kernel-level suite (`kernel_props.rs`) proves the prepacked GEMM
//! entry points match cold packing. These tests climb one level: a matmul
//! routed through a *parameter node* — whose panels fill lazily in the
//! generation's shared slot and are reused across tapes — must be
//! bit-identical to the same graph built from plain input nodes, which
//! never see a pack. That equivalence must survive cache reuse (second
//! tape on a warm slot) and optimizer-update invalidation (the slot must
//! track the new values, not the stale panels).

use rotom_nn::{Adam, ParamId, ParamStore, Tape, Tensor};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};

fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

/// Forward `A·W` + backward from `sum(A·W)` with `W` as a parameter node
/// (pack-slot path). Returns (forward value, dW, dA).
fn run_param(store: &mut ParamStore, w: ParamId, a: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut tape = Tape::new();
    let an = tape.input(a.clone());
    let wn = tape.param(w, store);
    let c = tape.matmul(an, wn);
    let loss = tape.sum_all(c);
    store.zero_grad();
    tape.backward(loss, store);
    (
        tape.value(c).data().to_vec(),
        store.grad(w).data().to_vec(),
        tape.grad(an).data().to_vec(),
    )
}

/// The identical graph with `W` as a plain input node: no pack slot exists
/// anywhere on this path, so every GEMM packs cold (or runs naive).
fn run_input(store: &ParamStore, w: ParamId, a: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut tape = Tape::new();
    let an = tape.input(a.clone());
    let wn = tape.input(store.value(w).clone());
    let c = tape.matmul(an, wn);
    let loss = tape.sum_all(c);
    let mut scratch = ParamStore::new();
    tape.backward(loss, &mut scratch);
    (
        tape.value(c).data().to_vec(),
        tape.grad(wn).data().to_vec(),
        tape.grad(an).data().to_vec(),
    )
}

fn assert_param_matches_input(store: &mut ParamStore, w: ParamId, a: &Tensor, what: &str) {
    let (cv, dw, da) = run_param(store, w, a);
    let (cv2, dw2, da2) = run_input(store, w, a);
    assert_eq!(cv, cv2, "{what}: forward value diverged");
    assert_eq!(dw, dw2, "{what}: dW diverged");
    assert_eq!(da, da2, "{what}: dA diverged");
}

/// Shapes straddling the tiled-dispatch threshold (`SMALL_FLOPS` = 32³):
/// naive-only, exactly at threshold, above with ragged edges, and a
/// pack-ineligible narrow matrix.
const SHAPES: &[(usize, usize, usize)] = &[
    (4, 32, 32),  // naive path, panels never fill
    (16, 32, 64), // m·k·n = 32768: first shape the tiled path serves
    (33, 48, 40), // above threshold, ragged in every dimension
    (64, 32, 8),  // fewer than NR columns: direct pack ineligible
];

#[test]
fn cached_panels_match_cold_pack_across_shapes() {
    for &(m, k, n) in SHAPES {
        let mut rng = StdRng::seed_from_u64((m * 1000 + k * 10 + n) as u64);
        let mut store = ParamStore::new();
        let wv = random_tensor(&mut rng, k, n);
        let w = store.push("w", wv);
        let a = random_tensor(&mut rng, m, k);
        // First pass fills the slot lazily; second pass reuses warm panels.
        assert_param_matches_input(&mut store, w, &a, &format!("{m}x{k}x{n} cold slot"));
        assert_param_matches_input(&mut store, w, &a, &format!("{m}x{k}x{n} warm slot"));
    }
}

#[test]
fn optimizer_update_invalidates_cached_panels() {
    let (m, k, n) = (33, 48, 40);
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let wv = random_tensor(&mut rng, k, n);
    let w = store.push("w", wv);
    let mut opt = Adam::new(1e-2);
    let mut last_gen = store.generation(w);
    for step in 0..4 {
        let a = random_tensor(&mut rng, m, k);
        // Warm the slot, then check the warm pass still matches cold.
        assert_param_matches_input(&mut store, w, &a, &format!("step {step} fill"));
        assert_param_matches_input(&mut store, w, &a, &format!("step {step} warm"));
        // The optimizer mutates W; a stale pack would reproduce the old
        // values on the next forward.
        opt.step(&mut store);
        let gen = store.generation(w);
        assert!(gen > last_gen, "optimizer step must bump the generation");
        last_gen = gen;
    }
}

#[test]
fn tapes_pin_the_generation_they_snapshot() {
    // A tape created before an update must keep computing with its own
    // snapshot (and its own pack slot) even after the store moves on.
    let (m, k, n) = (16, 32, 64);
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let wv = random_tensor(&mut rng, k, n);
    let w = store.push("w", wv);
    let a = random_tensor(&mut rng, m, k);

    let mut tape = Tape::new();
    let an = tape.input(a.clone());
    let wn = tape.param(w, &store);
    let before = store.value(w).clone();

    // Mutate the store between node creation and the matmul.
    store
        .value_mut(w)
        .data_mut()
        .iter_mut()
        .for_each(|v| *v += 1.0);

    let c = tape.matmul(an, wn);
    let mut expect = vec![0.0f32; m * n];
    rotom_nn::kernels::matmul_into(
        a.data(),
        before.data(),
        None,
        m,
        k,
        n,
        rotom_nn::RotomPool::global(),
        &mut expect,
    );
    assert_eq!(
        tape.value(c).data(),
        &expect[..],
        "tape must compute with the snapshot taken at param() time"
    );
}
