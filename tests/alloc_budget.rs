//! Allocation-regression gate for the meta-training hot loop.
//!
//! A counting global allocator (local to this test binary) measures bytes
//! allocated per steady-state `MetaTrainer` step and asserts the figure
//! stays under a checked-in budget. The memory-plane work (tape arenas,
//! pooled tapes, lazy packed-panel cache) took the step from ~35 MB of
//! transient allocation down to well under 1 MB; this test keeps it there.
//!
//! Two workloads are measured: short single-sentence inputs
//! (`bytes_per_step`) and entity-matching pairs of 20–39 tokens, the
//! Abt-Buy lengths (`pair_bytes_per_step`). Mixed lengths are the harder
//! case for buffer recycling: every new length is a new set of shapes.
//!
//! The budgets live in `tests/golden/alloc_budget.txt` with built-in
//! headroom over the measured values. If a deliberate change shifts a
//! profile, regenerate it with:
//!
//!   ROTOM_BLESS=1 cargo test --release --test alloc_budget
//!
//! and commit the file (blessing rewrites only the keys whose tests ran).
//! The run pins `ROTOM_THREADS=1` (the variable is read once per process)
//! so the count is machine-independent.

use rotom::config::ModelConfig;
use rotom::TinyLm;
use rotom_datasets::em::{self, EmConfig, EmFlavor};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_meta::{MetaConfig, MetaTrainer};
use rotom_text::example::{AugExample, Example};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every byte handed out (allocations plus the grown portion of
/// reallocations, across all threads).
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

/// The counter is process-global, so the tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const BUDGET_FILE: &str = "tests/golden/alloc_budget.txt";
/// Headroom multiplier applied when blessing: the budget is written as
/// `measured * HEADROOM`, absorbing harness noise and small legitimate
/// drift without letting a real regression (arena leak, cache thrash,
/// reintroduced clone) slip through.
const HEADROOM: f64 = 1.5;

fn blessing() -> bool {
    std::env::var("ROTOM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn read_budget(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(BUDGET_FILE).ok()?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next()) {
                (Some(k), Some(v)) if k == key => v.parse().ok(),
                _ => None,
            }
        })
}

/// Rewrite the `key` line of the budget file (appending it if absent),
/// leaving every other line as it is.
fn write_budget(key: &str, budget: u64) {
    let text = std::fs::read_to_string(BUDGET_FILE).unwrap_or_default();
    let line = format!("{key} {budget}");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    match lines
        .iter_mut()
        .find(|l| l.split_whitespace().next() == Some(key))
    {
        Some(l) => *l = line,
        None => lines.push(line),
    }
    std::fs::write(BUDGET_FILE, lines.join("\n") + "\n").expect("write alloc budget");
}

/// Run the trainbench workload (scaled down) over `train_pool` and return
/// bytes allocated per steady-state step.
fn measure_bytes_per_step(train_pool: &[Example], num_classes: usize) -> f64 {
    // `ROTOM_THREADS` is read once at first pool use; pin it before any
    // rotom code runs so the measurement is single-threaded everywhere.
    std::env::set_var("ROTOM_THREADS", "1");

    let mut model_cfg = ModelConfig::default();
    model_cfg.pretrain_epochs = 0;
    model_cfg.pair_pretrain_epochs = 0;
    let corpus: Vec<Vec<String>> = train_pool.iter().map(|e| e.tokens.clone()).collect();
    let mut target = TinyLm::from_corpus(&corpus, num_classes, &model_cfg, 5e-4, 7);
    let aug: Vec<AugExample> = train_pool.iter().map(AugExample::identity).collect();
    let meta_cfg = MetaConfig {
        batch_size: 16,
        val_batch_size: 16,
        seed: 3,
        ..Default::default()
    };
    let enc_cfg = model_cfg.encoder(target.vocab().len());
    let mut trainer = MetaTrainer::new(num_classes, target.vocab().clone(), enc_cfg, meta_cfg);

    // Warm-up: grow arenas, pooled tapes, and optimizer state to steady
    // state before counting.
    for _ in 0..2 {
        trainer.train_epoch(&mut target, &aug, train_pool, &[]);
    }

    let before = ALLOCATED.load(Ordering::Relaxed);
    let mut steps = 0usize;
    for _ in 0..3 {
        let stats = trainer.train_epoch(&mut target, &aug, train_pool, &[]);
        steps += stats.steps;
    }
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(steps > 0, "no optimizer steps taken");
    bytes as f64 / steps as f64
}

/// Compare `measured` with the budget under `key`, or bless it.
fn check_budget(key: &str, measured: f64) {
    if blessing() {
        let budget = (measured * HEADROOM).ceil() as u64;
        write_budget(key, budget);
        println!("blessed {BUDGET_FILE} {key}: measured {measured:.0} -> budget {budget}");
        return;
    }

    let budget = read_budget(key).unwrap_or_else(|| {
        panic!(
            "missing or unparseable {key} in {BUDGET_FILE}; regenerate with \
             `ROTOM_BLESS=1 cargo test --release --test alloc_budget` and commit it"
        )
    });
    assert!(
        measured <= budget as f64,
        "steady-state step allocated {measured:.0} bytes, over the checked-in \
         {key} budget of {budget}. If this increase is intended, re-bless with \
         `ROTOM_BLESS=1 cargo test --release --test alloc_budget`."
    );
}

#[test]
fn steady_state_step_allocation_stays_under_budget() {
    let _serial = serial();
    let data_cfg = TextClsConfig {
        train_pool: 32,
        test: 8,
        unlabeled: 8,
        seed: 11,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let measured = measure_bytes_per_step(&task.train_pool, task.num_classes);
    check_budget("bytes_per_step", measured);
}

/// Entity-matching pairs whose serializations are 20–39 tokens long, as on
/// Abt-Buy: every batch mixes many sequence lengths.
#[test]
fn steady_state_pair_step_allocation_stays_under_budget() {
    let _serial = serial();
    let cfg = EmConfig {
        num_entities: 60,
        train_pairs: 160,
        test_pairs: 8,
        seed: 11,
        ..EmConfig::default()
    };
    let task = em::generate(EmFlavor::AbtBuy, &cfg).to_task();
    let pool: Vec<Example> = task
        .train_pool
        .into_iter()
        .filter(|e| (20..=39).contains(&e.tokens.len()))
        .take(32)
        .collect();
    assert_eq!(pool.len(), 32, "too few 20–39-token pairs");
    let lengths: std::collections::HashSet<usize> = pool.iter().map(|e| e.tokens.len()).collect();
    assert!(lengths.len() >= 5, "pool should mix lengths: {lengths:?}");
    let measured = measure_bytes_per_step(&pool, task.num_classes);
    check_budget("pair_bytes_per_step", measured);
}
