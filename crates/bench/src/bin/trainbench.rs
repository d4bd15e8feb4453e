//! End-to-end meta-training step benchmark: steps/sec and bytes allocated
//! per steady-state step, written to `BENCH_train.json`.
//!
//! The workload is one Rotom Algorithm-2 step driven by [`MetaTrainer`] over
//! a TinyLm target (the hot loop of every pipeline run): batch assembly with
//! windowed prefetch scoring, weighting-model forward, phase-1 weighted
//! backward + optimizer step, phase-2 virtual step, validation backward and
//! the two finite-difference probes. Allocation is measured with a counting
//! global allocator local to this binary.
//!
//! The parent re-executes itself once per thread count (1 and 8) and
//! aggregates the children's rows through [`rotom_bench::harness`]. The
//! first run records its numbers as the `baseline` section; later runs
//! preserve the existing baseline and update `current`, so the file carries
//! the perf trajectory across PRs.
//!
//! Usage:
//!   cargo run --release --offline --bin trainbench            # regenerate
//!   cargo run --release --offline --bin trainbench -- --check # + fail on
//!                                                 >20% steps/sec regression

use rotom::config::ModelConfig;
use rotom::TinyLm;
use rotom_bench::harness::{self, fixed, num, row, Json};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_meta::{MetaConfig, MetaTrainer};
use rotom_text::example::AugExample;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator that counts every byte handed out (allocations and the
/// grown portion of reallocations, across all threads).
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHILD_ENV: &str = "TRAINBENCH_CHILD";
const OUT_FILE: &str = "BENCH_train.json";
/// The recorded numbers the gate and the `speedup` section read.
const GATED: [&str; 2] = ["steps_per_sec", "bytes_per_step"];

/// One measured child process: run the meta-training hot loop at the current
/// `ROTOM_THREADS` setting and return its row.
fn run_child() -> Json {
    // Deterministic small-but-realistic task: the default TinyLm encoder
    // (d_model 32, 2 layers) over a synthetic sentiment task; the augmented
    // pool is identity augmentations so no InvDA model is involved.
    let data_cfg = TextClsConfig {
        train_pool: 64,
        test: 8,
        unlabeled: 8,
        seed: 11,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let model_cfg = ModelConfig {
        pretrain_epochs: 0,
        pair_pretrain_epochs: 0,
        ..ModelConfig::default()
    };
    let corpus: Vec<Vec<String>> = task.train_pool.iter().map(|e| e.tokens.clone()).collect();
    let mut target = TinyLm::from_corpus(&corpus, task.num_classes, &model_cfg, 5e-4, 7);
    let aug: Vec<AugExample> = task.train_pool.iter().map(AugExample::identity).collect();
    let meta_cfg = MetaConfig {
        batch_size: 16,
        val_batch_size: 16,
        seed: 3,
        ..Default::default()
    };
    let enc_cfg = model_cfg.encoder(target.vocab().len());
    let mut trainer = MetaTrainer::new(task.num_classes, target.vocab().clone(), enc_cfg, meta_cfg);

    let quick = std::env::var("ROTOM_BENCH_SCALE").as_deref() == Ok("quick");
    let (warmup_epochs, blocks, epochs_per_block) = if quick { (1, 1, 2) } else { (2, 5, 3) };

    for _ in 0..warmup_epochs {
        trainer.train_epoch(&mut target, &aug, &task.train_pool, &[]);
    }

    // Best-of-blocks steps/sec: on a shared machine wall time is hostage to
    // co-tenants, and the fastest block is the tightest estimate of machine
    // capacity. Bytes/step is taken over the whole measured run (allocation
    // is deterministic).
    let bytes_before = ALLOCATED.load(Ordering::Relaxed);
    let mut rates = Vec::with_capacity(blocks);
    let mut steps = 0usize;
    for _ in 0..blocks {
        let t0 = Instant::now();
        let mut block_steps = 0usize;
        for _ in 0..epochs_per_block {
            let stats = trainer.train_epoch(&mut target, &aug, &task.train_pool, &[]);
            block_steps += stats.steps;
        }
        rates.push(block_steps as f64 / t0.elapsed().as_secs_f64());
        steps += block_steps;
    }
    let bytes = ALLOCATED.load(Ordering::Relaxed) - bytes_before;
    assert!(steps > 0, "no optimizer steps taken");
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let threads = rotom_nn::RotomPool::global().threads();
    let steps_per_sec = rates[rates.len() - 1];
    let bytes_per_step = bytes as f64 / steps as f64;
    println!(
        "meta train step, {threads} thread(s): {steps_per_sec:.2} steps/s, {bytes_per_step:.0} bytes/step"
    );
    row([
        ("threads", fixed(threads as f64, 0)),
        ("steps_per_sec", fixed(steps_per_sec, 4)),
        ("bytes_per_step", fixed(bytes_per_step, 1)),
    ])
}

/// The `--check` gate: steps/sec at each thread count must stay within 20%
/// of the previously recorded `current` row.
fn gate(prev: &[Json], _baseline: &[Json], current: &[Json]) -> Vec<String> {
    harness::below(prev, current, "steps_per_sec", 0.8, "steps/sec regression")
}

fn main() {
    harness::child(CHILD_ENV, run_child);
    let check = std::env::args().any(|a| a == "--check");
    let prev = harness::read(OUT_FILE, &GATED);
    let current = harness::sweep(CHILD_ENV, &[]);
    let baseline = prev.baseline_or(&current);
    if check {
        harness::enforce("trainbench", gate(&prev.current, &baseline, &current));
    }
    let speedup = harness::vs_baseline(&baseline, &current, |s, b| {
        vec![
            (
                "steps_per_sec_ratio",
                fixed(num(s, "steps_per_sec") / num(b, "steps_per_sec"), 3),
            ),
            (
                "bytes_reduction",
                fixed(
                    num(b, "bytes_per_step") / num(s, "bytes_per_step").max(1.0),
                    2,
                ),
            ),
        ]
    });
    harness::write(
        OUT_FILE,
        &[
            (
                "workload",
                Json::Str(
                    "MetaTrainer::train_epoch, TinyLm d_model=32 L=2, batch 16, pool 64".into(),
                ),
            ),
            ("baseline", Json::Arr(baseline)),
            ("current", Json::Arr(current)),
            ("speedup", Json::Arr(speedup)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded() -> harness::Recorded {
        harness::parse(include_str!("../../../../BENCH_train.json"), &GATED).unwrap()
    }

    #[test]
    fn unchanged_numbers_pass() {
        let r = recorded();
        assert_eq!(
            gate(&r.current, &r.baseline, &r.current),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_quarter_slower_fails_at_every_thread_count() {
        let r = recorded();
        let slower = harness::map_key(&r.current, "steps_per_sec", |v| v * 0.75);
        assert_eq!(
            gate(&r.current, &r.baseline, &slower).len(),
            r.current.len()
        );
        let within = harness::map_key(&r.current, "steps_per_sec", |v| v * 0.81);
        assert!(gate(&r.current, &r.baseline, &within).is_empty());
    }
}
