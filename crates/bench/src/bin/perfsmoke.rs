//! Perf smoke benchmark: std-`Instant` timings for the compute core.
//!
//! Times square matmul at 64/256/512 (naive reference vs serial tiled vs
//! pool-parallel tiled) plus one InvDA augmentation batch (serial vs
//! parallel fan-out), and writes the results to `BENCH_compute.json` so
//! successive PRs have a perf trajectory to compare against.
//!
//! Run with `cargo run --release --offline --bin perfsmoke`.

use rotom_augment::{InvDa, InvDaConfig};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_nn::kernels;
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Median-of-runs wall time for `f`, in seconds.
fn time_median(runs: usize, mut f: impl FnMut()) -> f64 {
    // One untimed warmup to populate caches and page in buffers.
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct MatmulRow {
    size: usize,
    naive_s: f64,
    tiled_serial_s: f64,
    tiled_parallel_s: f64,
}

fn bench_matmul(size: usize, pool: &RotomPool) -> MatmulRow {
    let mut rng = StdRng::seed_from_u64(size as u64);
    let a: Vec<f32> = (0..size * size)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let b: Vec<f32> = (0..size * size)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    // Fewer runs for the big sizes; medians are stable well before 10 runs.
    let runs = if size >= 512 { 5 } else { 9 };
    let serial = RotomPool::new(1);
    let mut out = vec![0.0f32; size * size];
    let naive_s = time_median(runs, || {
        std::hint::black_box(kernels::matmul_naive(&a, &b, size, size, size));
    });
    let tiled_serial_s = time_median(runs, || {
        kernels::matmul_into(&a, &b, None, size, size, size, &serial, &mut out);
        std::hint::black_box(&mut out);
    });
    let tiled_parallel_s = time_median(runs, || {
        kernels::matmul_into(&a, &b, None, size, size, size, pool, &mut out);
        std::hint::black_box(&mut out);
    });
    MatmulRow {
        size,
        naive_s,
        tiled_serial_s,
        tiled_parallel_s,
    }
}

struct ForwardRow {
    op: &'static str,
    rows: usize,
    cols: usize,
    time_s: f64,
}

/// Forward-only SIMD kernels from the inference plane: softmax, layernorm
/// and GELU over a `rows x cols` activation block (one attention-score /
/// hidden-state sized panel per call).
fn bench_forward_kernels() -> Vec<ForwardRow> {
    let (rows, cols) = (256, 256);
    let mut rng = StdRng::seed_from_u64(41);
    let x: Vec<f32> = (0..rows * cols)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect();
    let gamma: Vec<f32> = (0..cols).map(|_| rng.random_range(0.5f32..1.5)).collect();
    let beta: Vec<f32> = (0..cols).map(|_| rng.random_range(-0.5f32..0.5)).collect();
    let mut out = vec![0.0f32; rows * cols];
    let softmax_s = time_median(9, || {
        kernels::softmax_fwd(&x, None, rows, cols, &mut out);
        std::hint::black_box(&mut out);
    });
    let layernorm_s = time_median(9, || {
        kernels::layernorm_fwd(&x, &gamma, &beta, 1e-5, &mut out, None);
        std::hint::black_box(&mut out);
    });
    let gelu_s = time_median(9, || {
        kernels::gelu_fwd(&x, &mut out, None);
        std::hint::black_box(&mut out);
    });
    vec![
        ForwardRow {
            op: "softmax_fwd",
            rows,
            cols,
            time_s: softmax_s,
        },
        ForwardRow {
            op: "layernorm_fwd",
            rows,
            cols,
            time_s: layernorm_s,
        },
        ForwardRow {
            op: "gelu_fwd",
            rows,
            cols,
            time_s: gelu_s,
        },
    ]
}

struct AugmentRow {
    batch: usize,
    serial_s: f64,
    parallel_s: f64,
}

fn bench_invda(pool: &RotomPool) -> AugmentRow {
    let data_cfg = TextClsConfig {
        train_pool: 32,
        test: 8,
        unlabeled: 24,
        seed: 5,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let model = InvDa::train(&task.unlabeled, InvDaConfig::test_tiny(), 5);
    let inputs: Vec<&[String]> = task
        .train_pool
        .iter()
        .map(|e| e.tokens.as_slice())
        .collect();
    let serial = RotomPool::new(1);
    // Fresh model caches per timing pass would conflate generation with
    // lookup; clear between runs so every pass measures the full fan-out.
    let serial_s = time_median(3, || {
        model.clear_cache();
        std::hint::black_box(model.augment_batch(&inputs, 17, &serial));
    });
    let parallel_s = time_median(3, || {
        model.clear_cache();
        std::hint::black_box(model.augment_batch(&inputs, 17, pool));
    });
    AugmentRow {
        batch: inputs.len(),
        serial_s,
        parallel_s,
    }
}

fn main() {
    let pool = RotomPool::global();
    println!("perfsmoke: {} worker thread(s)", pool.threads());

    let mut rows = Vec::new();
    for size in [64, 256, 512] {
        let row = bench_matmul(size, pool);
        println!(
            "matmul {0}x{0}x{0}: naive {1:.3} ms | tiled serial {2:.3} ms ({3:.2}x) | tiled parallel {4:.3} ms ({5:.2}x)",
            size,
            row.naive_s * 1e3,
            row.tiled_serial_s * 1e3,
            row.naive_s / row.tiled_serial_s,
            row.tiled_parallel_s * 1e3,
            row.naive_s / row.tiled_parallel_s,
        );
        rows.push(row);
    }

    let fwd = bench_forward_kernels();
    for r in &fwd {
        println!("{} {}x{}: {:.1} us", r.op, r.rows, r.cols, r.time_s * 1e6);
    }

    let aug = bench_invda(pool);
    println!(
        "invda batch={}: serial {:.1} ms | parallel {:.1} ms ({:.2}x)",
        aug.batch,
        aug.serial_s * 1e3,
        aug.parallel_s * 1e3,
        aug.serial_s / aug.parallel_s,
    );

    // Hand-rolled JSON (the workspace carries no serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {},", pool.threads());
    json.push_str("  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"size\": {}, \"naive_s\": {:.6e}, \"tiled_serial_s\": {:.6e}, \"tiled_parallel_s\": {:.6e}, \"speedup_serial\": {:.3}, \"speedup_parallel\": {:.3}}}",
            r.size,
            r.naive_s,
            r.tiled_serial_s,
            r.tiled_parallel_s,
            r.naive_s / r.tiled_serial_s,
            r.naive_s / r.tiled_parallel_s,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"forward_kernels\": [\n");
    for (i, r) in fwd.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"op\": \"{}\", \"rows\": {}, \"cols\": {}, \"time_s\": {:.6e}}}",
            r.op, r.rows, r.cols, r.time_s,
        );
        json.push_str(if i + 1 < fwd.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"invda_augment\": {{\"batch\": {}, \"serial_s\": {:.6e}, \"parallel_s\": {:.6e}, \"speedup\": {:.3}}}",
        aug.batch,
        aug.serial_s,
        aug.parallel_s,
        aug.serial_s / aug.parallel_s,
    );
    json.push_str("}\n");
    std::fs::write("BENCH_compute.json", &json).expect("write BENCH_compute.json");
    println!("wrote BENCH_compute.json");
}
