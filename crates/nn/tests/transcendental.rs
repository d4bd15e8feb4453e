//! Properties of the in-tree `exp` / `tanh` (`kernels::exp_f32`,
//! `kernels::tanh_f32`) and their vectorized slice forms.
//!
//! * The SIMD tier (`exp_fwd`, `tanh_fwd` on AVX hosts) is bit-identical to
//!   the scalar functions at lengths straddling the 8-lane width, on random
//!   and special inputs. On hosts without AVX both sides are the scalar
//!   code and the check is trivially true.
//! * Special values: NaN propagates (the NaN-rollback path relies on it),
//!   the attention mask value underflows to exactly `0`, `tanh` keeps the
//!   sign of zero, infinities saturate.
//! * Error against an `f64` reference: `exp` within 1 ulp on
//!   `[EXP_MIN, EXP_MAX]` (the normal-result range), `tanh` within 2 ulp on
//!   every finite input. A strided sample runs by default; the `#[ignore]`d
//!   pass covers every `f32` in those domains:
//!
//!   ```sh
//!   cargo test --release --offline -p rotom-nn --test transcendental -- --include-ignored
//!   ```

use rotom_nn::kernels::{exp_f32, exp_fwd, softmax_row_fwd, tanh_f32, tanh_fwd};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};

/// Lengths around the 8-lane SIMD width: tail only, one full vector, full
/// vectors plus tails, many vectors.
const LENS: &[usize] = &[1, 7, 8, 9, 31, 256];

/// `exp`'s 1-ulp domain: the inputs whose result is a normal `f32`.
const EXP_MIN: f32 = -87.33;
const EXP_MAX: f32 = 88.37;
const EXP_ULP: f64 = 1.0;
const TANH_ULP: f64 = 2.0;

/// Inputs at and around every branch and range boundary of both functions.
const SPECIALS: &[f32] = &[
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1.0,
    -1.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1e-45,
    -1e-45,
    f32::MAX,
    f32::MIN,
    -1e9,
    1e9,
    88.722_83,
    88.722_84,
    88.8,
    88.800_01,
    -87.336_55,
    -103.972_08,
    -104.0,
    -104.000_01,
    0.624_999_94,
    0.625,
    -0.625,
    9.0,
    9.000_001,
    -9.0,
    0.346_573_6,
    -0.346_573_6,
];

/// Same bits, or both NaN (NaN payloads are not part of the contract).
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn check_tiers(x: &[f32], ctx: &str) {
    let mut got = vec![0.0f32; x.len()];
    exp_fwd(x, &mut got);
    for (j, (&v, &g)) in x.iter().zip(&got).enumerate() {
        let want = exp_f32(v);
        assert!(
            same(g, want),
            "{ctx}: exp_fwd[{j}]({v:e}) = {g:e}, exp_f32 = {want:e}"
        );
    }
    tanh_fwd(x, &mut got);
    for (j, (&v, &g)) in x.iter().zip(&got).enumerate() {
        let want = tanh_f32(v);
        assert!(
            same(g, want),
            "{ctx}: tanh_fwd[{j}]({v:e}) = {g:e}, tanh_f32 = {want:e}"
        );
    }
}

#[test]
fn simd_tier_matches_scalar_bitwise_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(0x7a17);
    for &len in LENS {
        for rep in 0..16 {
            let x: Vec<f32> = (0..len)
                .map(|_| match rep % 4 {
                    0 => rng.random_range(-110.0f32..95.0),
                    1 => rng.random_range(-12.0f32..12.0),
                    2 => rng.random_range(-1.0f32..1.0),
                    _ => f32::from_bits(rng.random_range(0u32..=u32::MAX)),
                })
                .collect();
            check_tiers(&x, &format!("len {len} rep {rep}"));
        }
    }
}

#[test]
fn simd_tier_matches_scalar_bitwise_on_special_inputs() {
    for &len in LENS {
        // Rotate the specials through every lane and tail position.
        for shift in 0..SPECIALS.len() {
            let x: Vec<f32> = (0..len)
                .map(|j| SPECIALS[(j + shift) % SPECIALS.len()])
                .collect();
            check_tiers(&x, &format!("len {len} shift {shift}"));
        }
    }
}

#[test]
fn special_values() {
    for f in [exp_f32 as fn(f32) -> f32, tanh_f32] {
        assert!(f(f32::NAN).is_nan());
        assert!(f(-f32::NAN).is_nan());
    }
    assert_eq!(exp_f32(-1e9).to_bits(), 0.0f32.to_bits());
    assert_eq!(exp_f32(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(exp_f32(0.0), 1.0);
    assert_eq!(exp_f32(-0.0), 1.0);
    assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
    assert_eq!(exp_f32(88.8), f32::INFINITY);
    assert_eq!(exp_f32(1e9), f32::INFINITY);
    assert!(exp_f32(88.72).is_finite());
    // Subnormal results round once; the smallest one is still reachable.
    assert!(exp_f32(-100.0) > 0.0 && exp_f32(-100.0) < f32::MIN_POSITIVE);
    assert_eq!(exp_f32(-103.3).to_bits(), 1);

    assert_eq!(tanh_f32(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(tanh_f32(f32::INFINITY), 1.0);
    assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
    assert_eq!(tanh_f32(1e-45).to_bits(), 1e-45f32.to_bits());
    assert_eq!(tanh_f32(-1e-45).to_bits(), (-1e-45f32).to_bits());

    // The slice forms carry the same special cases.
    let x = [f32::NAN, -1e9, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
    let mut e = [0.0f32; 6];
    let mut t = [0.0f32; 6];
    exp_fwd(&x, &mut e);
    tanh_fwd(&x, &mut t);
    assert!(e[0].is_nan() && t[0].is_nan());
    assert_eq!(&e[1..], &[0.0, 1.0, 1.0, f32::INFINITY, 0.0]);
    assert_eq!(t[3].to_bits(), (-0.0f32).to_bits());
    assert_eq!(&t[4..], &[1.0, -1.0]);
}

#[test]
fn softmax_masks_to_zero_and_propagates_nan() {
    for len in [3usize, 8, 19] {
        let row: Vec<f32> = (0..len).map(|j| j as f32 * 0.25).collect();
        let mut mask = vec![0.0f32; len];
        mask[1] = -1e9;
        let mut out = vec![0.0f32; len];
        softmax_row_fwd(&row, Some(&mask), &mut out);
        assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "len {len}");
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-6);

        let mut bad = row.clone();
        bad[len - 1] = f32::NAN;
        softmax_row_fwd(&bad, None, &mut out);
        assert!(out.iter().all(|v| v.is_nan()), "len {len}: {out:?}");
    }
}

/// The spacing of `f32` values at the magnitude of `r` (subnormal spacing
/// below the normal range).
fn ulp_at(r: f64) -> f64 {
    let e = ((r.abs().to_bits() >> 52) & 0x7ff) as i32 - 1023;
    2f64.powi(e.max(-126) - 23)
}

/// Largest error in ulps of `fwd` against `reference`, and its input, over
/// every `stride`-th `f32` bit pattern of `range` that lies in `domain`;
/// also checks `fwd` (the SIMD tier) against the scalar `f` on each input.
fn max_err(
    range: std::ops::Range<u64>,
    stride: u64,
    domain: fn(f32) -> bool,
    f: fn(f32) -> f32,
    fwd: fn(&[f32], &mut [f32]),
    reference: fn(f64) -> f64,
) -> (f64, f32) {
    const BLOCK: usize = 4096;
    let mut x = Vec::with_capacity(BLOCK);
    let mut y = vec![0.0f32; BLOCK];
    let (mut worst, mut at) = (0.0f64, 0.0f32);
    let mut bits = range.start;
    while bits < range.end {
        x.clear();
        while x.len() < BLOCK && bits < range.end {
            let v = f32::from_bits(bits as u32);
            if domain(v) {
                x.push(v);
            }
            bits += stride;
        }
        let y = &mut y[..x.len()];
        fwd(&x, y);
        for (&v, &g) in x.iter().zip(y.iter()) {
            assert!(same(g, f(v)), "tiers differ at {v:e}");
            let r = reference(v as f64);
            let err = (g as f64 - r).abs() / ulp_at(r);
            if err > worst {
                (worst, at) = (err, v);
            }
        }
    }
    (worst, at)
}

fn exp_domain(v: f32) -> bool {
    (EXP_MIN..=EXP_MAX).contains(&v)
}

fn tanh_domain(v: f32) -> bool {
    v.is_finite()
}

/// Splits all 2³² bit patterns over a few threads and returns the worst
/// error and its input.
fn sweep(
    stride: u64,
    domain: fn(f32) -> bool,
    f: fn(f32) -> f32,
    fwd: fn(&[f32], &mut [f32]),
    reference: fn(f64) -> f64,
) -> (f64, f32) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
    let total = 1u64 << 32;
    // Chunk boundaries are multiples of the stride, so the union of the
    // chunks visits exactly the patterns a single strided walk would.
    let chunk = (total / threads).div_ceil(stride) * stride;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let range = (t * chunk).min(total)..((t + 1) * chunk).min(total);
                s.spawn(move || max_err(range, stride, domain, f, fwd, reference))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    })
}

/// Prime stride over the bit patterns: about 4.3M samples, every exponent.
const SAMPLE_STRIDE: u64 = 997;

#[test]
fn exp_error_within_1_ulp_sampled() {
    let (err, at) = sweep(SAMPLE_STRIDE, exp_domain, exp_f32, exp_fwd, f64::exp);
    assert!(err <= EXP_ULP, "exp error {err} ulp at {at:e}");
}

#[test]
fn tanh_error_within_2_ulp_sampled() {
    let (err, at) = sweep(SAMPLE_STRIDE, tanh_domain, tanh_f32, tanh_fwd, f64::tanh);
    assert!(err <= TANH_ULP, "tanh error {err} ulp at {at:e}");
}

#[test]
#[ignore = "exhaustive over every f32; run in release with --include-ignored"]
fn exp_error_within_1_ulp_exhaustive() {
    let (err, at) = sweep(1, exp_domain, exp_f32, exp_fwd, f64::exp);
    println!("exp: max error {err:.3} ulp at {at:e}");
    assert!(err <= EXP_ULP, "exp error {err} ulp at {at:e}");
}

#[test]
#[ignore = "exhaustive over every f32; run in release with --include-ignored"]
fn tanh_error_within_2_ulp_exhaustive() {
    let (err, at) = sweep(1, tanh_domain, tanh_f32, tanh_fwd, f64::tanh);
    println!("tanh: max error {err:.3} ulp at {at:e}");
    assert!(err <= TANH_ULP, "tanh error {err} ulp at {at:e}");
}
