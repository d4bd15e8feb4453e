//! Property tests for the matmul kernels at adversarial shapes.
//!
//! The unit tests in `kernels.rs` pin a fixed list of shapes; this suite
//! drives all three GEMM variants over *randomly drawn* dimensions biased
//! toward the places tiled kernels break: 0/1 degenerates, off-by-one
//! around the `MR`×`NR` register tile, and sizes straddling the
//! `SMALL_FLOPS` / `PAR_MIN_FLOPS` dispatch thresholds. Every draw is
//! checked against the naive reference at 1, 2, and 8 pool workers, so a
//! bug in tile-edge handling, panel packing, or the parallel row split
//! cannot hide behind a lucky fixed shape.

use rotom_nn::kernels::{
    matmul_into, matmul_naive, matmul_transpose_a_into, matmul_transpose_b_into,
    matmul_transpose_b_naive, transpose, MR, NR, PAR_MIN_FLOPS, SMALL_FLOPS,
};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};

/// Worker counts exercised for every case: serial, smallest parallel, and a
/// count larger than most row splits (forcing workers > units clamping).
const WORKERS: &[usize] = &[1, 2, 8];

/// Cross-kernel tolerance: the FMA micro-kernel rounds once per fused
/// multiply-add, so tiled and naive results may differ by ~1e-4 per dot
/// product (see the determinism note in `kernels.rs`).
const TOL: f32 = 1e-4;

/// Dimension pool biased toward tile edges: degenerate 0/1, every residue
/// around `MR` = 4 and `NR` = 16, and sizes near the dispatch thresholds.
const DIMS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 48, 63, 65];

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect()
}

fn assert_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
        assert!(
            (x - y).abs() <= TOL,
            "{ctx}: element {i}: got {x}, want {y}"
        );
    }
}

/// Check all three variants against their naive references for one shape.
/// `Aᵀ·G` has no bespoke naive kernel, so its reference is the naive product
/// of the explicit transpose (same accumulation order).
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let bt = random_matrix(&mut rng, n, k);
    let g = random_matrix(&mut rng, m, n);
    let ab = matmul_naive(&a, &b, m, k, n);
    let abt = matmul_transpose_b_naive(&a, &bt, m, k, n);
    let atg = matmul_naive(&transpose(&a, m, k), &g, k, m, n);
    let mut out = vec![0.0f32; m * n];
    let mut out_ta = vec![0.0f32; k * n];
    for &w in WORKERS {
        let pool = RotomPool::new(w);
        matmul_into(&a, &b, None, m, k, n, &pool, &mut out);
        assert_close(&out, &ab, &format!("matmul {m}x{k}x{n} workers={w}"));
        matmul_transpose_b_into(&a, &bt, None, m, k, n, &pool, &mut out);
        assert_close(&out, &abt, &format!("matmul_tb {m}x{k}x{n} workers={w}"));
        matmul_transpose_a_into(&a, &g, m, k, n, &pool, &mut out_ta);
        assert_close(&out_ta, &atg, &format!("matmul_ta {m}x{k}x{n} workers={w}"));
    }
}

#[test]
fn random_edge_shapes_match_naive() {
    let mut rng = StdRng::seed_from_u64(0x5a5e);
    for case in 0..60u64 {
        let m = DIMS[rng.random_range(0..DIMS.len())];
        let k = DIMS[rng.random_range(0..DIMS.len())];
        let n = DIMS[rng.random_range(0..DIMS.len())];
        check_shape(m, k, n, split_seed(0x5a5f, case));
    }
}

#[test]
fn zero_and_unit_dimensions() {
    // Every combination of a 0 or 1 extent with small non-trivial extents:
    // empty batches (m = 0), rank-0 contractions (k = 0, output must be all
    // zeros), single-row/column products, and the all-degenerate corners.
    for (case, &(m, k, n)) in [
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 17, 1),
        (1, 1, 33),
        (33, 1, 1),
        (1, 64, 64),
        (64, 64, 1),
        (64, 1, 64),
    ]
    .iter()
    .enumerate()
    {
        check_shape(m, k, n, split_seed(0x5a60, case as u64));
    }
}

#[test]
fn shapes_straddling_dispatch_thresholds() {
    // Shapes chosen to land just below and just above both dispatch cuts,
    // so naive, serial-tiled, and parallel-tiled code paths all run (the
    // parallel path additionally needs m ≥ 2·MR rows to split).
    let below_small = (8, 16, 16); // 2048 < SMALL_FLOPS
    let above_small = (33, 33, 33); // 35937 ≥ SMALL_FLOPS, < PAR_MIN_FLOPS
    let above_par = (80, 65, 72); // 374400 ≥ PAR_MIN_FLOPS
    assert!(below_small.0 * below_small.1 * below_small.2 < SMALL_FLOPS);
    assert!(above_small.0 * above_small.1 * above_small.2 >= SMALL_FLOPS);
    assert!(above_small.0 * above_small.1 * above_small.2 < PAR_MIN_FLOPS);
    assert!(above_par.0 * above_par.1 * above_par.2 >= PAR_MIN_FLOPS);
    for (case, &(m, k, n)) in [below_small, above_small, above_par].iter().enumerate() {
        check_shape(m, k, n, split_seed(0x5a61, case as u64));
    }
}

#[test]
fn non_tile_multiple_shapes_match_naive() {
    // Sweep every residue class around one register tile: m in MR..2·MR,
    // n in NR..2·NR, k fixed off any power of two. Catches edge-kernel
    // indexing bugs for each (ragged rows × ragged cols) combination.
    for m in MR..2 * MR {
        for n in NR..2 * NR {
            check_shape(m, 19, n, split_seed(0x5a62, (m * 100 + n) as u64));
        }
    }
}
