//! Million-record blocking benchmark: index-build records/sec, streamed
//! candidate pairs/sec, recall vs exhaustive `blocked()` on a verification
//! slice, and a peak-allocation RSS proxy, written to `BENCH_blocking.json`.
//!
//! Two rows per thread count:
//!
//! * **scale** — a stopword-free [`EmCorpus`] of `--records` entities
//!   (default 1M, the acceptance floor). The index is built in streamed
//!   chunks, then the full left side streams through
//!   [`stream_candidates`] under a bounded candidate buffer. Recall is
//!   measured against exhaustive [`block_candidates`] on a 2000x2000
//!   verification slice (the corpus has no high-df token, so the exact
//!   token tier is feasible and the comparison honest).
//! * **stress** — a 200k corpus with 3 stopwords welded onto every record,
//!   which makes exhaustive `blocked(min_shared=2)` degenerate toward the
//!   cross product. The df ceiling must prune the stopword posting lists
//!   (`tokens_pruned >= 3`) while match-pair recall (left i vs right i)
//!   stays >= 0.95, with the LSH tier enabled as the recovery net.
//!
//! The parent re-executes itself per thread count (1 and 8) and aggregates
//! the children's rows through [`rotom_bench::harness`]. The first run
//! records `baseline`; later runs preserve it and update `current`.
//!
//! Usage:
//!   cargo run --release --offline --bin blockbench                # regenerate
//!   cargo run --release --offline --bin blockbench -- --check     # + gates
//!   cargo run --release --offline --bin blockbench -- --records N # resize

use rotom_bench::harness::{self, fixed, num, row, Json};
use rotom_datasets::blocking::{stream_candidates, BlockingConfig, IndexBuilder, LshParams};
use rotom_datasets::em::{block_candidates, CorpusConfig, CorpusSide, EmCorpus};
use rotom_nn::RotomPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator tracking live bytes and their high-water mark — the
/// peak-RSS proxy. Dealloc sizes come from the layout, so the live counter
/// is exact for everything allocated through this process.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        if grown > 0 {
            note_alloc(grown);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHILD_ENV: &str = "BLOCKBENCH_CHILD";
const RECORDS_ENV: &str = "BLOCKBENCH_RECORDS";
const OUT_FILE: &str = "BENCH_blocking.json";
const CHUNK: usize = 8192;
const SLICE: usize = 2000;
const STRESS_RECORDS: usize = 200_000;
/// The recorded numbers the gates and the `speedup` section read.
const GATED: [&str; 3] = ["records", "pairs_per_sec", "index_records_per_sec"];

/// One measured child: scale row then stress row at the current
/// `ROTOM_THREADS`, returned as one row.
fn run_child(records: usize) -> Json {
    let pool = RotomPool::global();
    let corpus = EmCorpus::new(CorpusConfig {
        num_entities: records,
        ..Default::default()
    });

    // --- scale row: streamed build, streamed candidates, slice recall ---
    let cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(4096),
        lsh: Some(LshParams::default()),
        max_buffered_pairs: 1 << 16,
        ..Default::default()
    };
    let max_buffered = cfg.max_buffered_pairs;
    let t0 = Instant::now();
    let mut builder = IndexBuilder::new(cfg);
    for chunk in corpus.chunks(CorpusSide::Right, CHUNK) {
        builder.add_chunk(&chunk, pool);
    }
    let index = builder.finish();
    let build_secs = t0.elapsed().as_secs_f64();

    // Stream every left record; keep only the verification slice's pairs.
    let t1 = Instant::now();
    let mut slice_pairs: Vec<(usize, usize)> = Vec::new();
    let stats = stream_candidates(
        &index,
        corpus.chunks(CorpusSide::Left, CHUNK),
        pool,
        |batch| {
            slice_pairs.extend(
                batch
                    .iter()
                    .filter(|&&(l, r)| l < SLICE && r < SLICE)
                    .copied(),
            );
        },
    );
    let stream_secs = t1.elapsed().as_secs_f64();
    assert_eq!(stats.left_records, records);
    assert!(
        stats.peak_buffered_pairs <= max_buffered + records,
        "candidate buffer unbounded: peak {}",
        stats.peak_buffered_pairs
    );

    // Exhaustive token-overlap blocking on the slice; every exhaustive pair
    // the pipeline misses costs recall.
    let slice = SLICE.min(records);
    let left_slice = corpus.chunk(CorpusSide::Left, 0..slice);
    let right_slice = corpus.chunk(CorpusSide::Right, 0..slice);
    let exhaustive = block_candidates(&left_slice, &right_slice, 2);
    slice_pairs.sort_unstable();
    let hit = exhaustive
        .iter()
        .filter(|p| slice_pairs.binary_search(p).is_ok())
        .count();
    let recall = hit as f64 / exhaustive.len().max(1) as f64;

    // --- stress row: stopworded corpus, pruning must engage ---
    let stress = EmCorpus::new(CorpusConfig {
        num_entities: STRESS_RECORDS.min(records),
        stopwords: 3,
        ..Default::default()
    });
    let stress_cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(1024),
        lsh: Some(LshParams::default()),
        ..Default::default()
    };
    let mut sb = IndexBuilder::new(stress_cfg);
    for chunk in stress.chunks(CorpusSide::Right, CHUNK) {
        sb.add_chunk(&chunk, pool);
    }
    let sindex = sb.finish();
    let pruned = sindex.stats().tokens_pruned;
    let n_stress = stress.num_entities();
    let mut matched = 0usize;
    let mut streamed = 0usize;
    stream_candidates(
        &sindex,
        stress.chunks(CorpusSide::Left, CHUNK),
        pool,
        |batch| {
            matched += batch.iter().filter(|&&(l, r)| l == r).count();
            streamed += batch.len();
        },
    );
    let stress_recall = matched as f64 / n_stress as f64;
    // Pruning is the whole point: without it each stopword posting list has
    // every record and each probe degenerates to a corpus scan.
    assert!(
        streamed < n_stress * n_stress / 10,
        "stress candidates not pruned: {streamed}"
    );

    let threads = pool.threads();
    let index_records_per_sec = records as f64 / build_secs;
    let pairs_per_sec = stats.candidates as f64 / stream_secs;
    let peak_mb = PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0);
    println!(
        "blocking, {threads} thread(s): {index_records_per_sec:.0} rec/s indexed, \
         {pairs_per_sec:.0} pairs/s, recall {recall:.4}, peak {peak_mb:.0} MB, \
         stress pruned {pruned} recall {stress_recall:.4}",
    );
    row([
        ("threads", fixed(threads as f64, 0)),
        ("records", fixed(records as f64, 0)),
        ("index_records_per_sec", fixed(index_records_per_sec, 2)),
        ("pairs_per_sec", fixed(pairs_per_sec, 2)),
        ("candidates", fixed(stats.candidates as f64, 0)),
        ("recall", fixed(recall, 6)),
        ("peak_mb", fixed(peak_mb, 1)),
        ("stress_pruned_tokens", fixed(pruned as f64, 0)),
        ("stress_recall", fixed(stress_recall, 6)),
    ])
}

/// The `--check` gates: the scale row indexes at least 1M records, slice
/// and stress recall stay at or above 0.95, the df ceiling prunes all 3
/// stopwords, and pairs/sec stays within 20% of the previous `current` row
/// at the same corpus size (a `--records` resize has nothing to compare).
fn gate(prev: &[Json], _baseline: &[Json], current: &[Json]) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, floor, what) in [
        ("records", 1e6, "scale row records indexed"),
        ("recall", 0.95, "slice recall"),
        ("stress_pruned_tokens", 3.0, "df-ceiling stopwords pruned"),
        ("stress_recall", 0.95, "stress match recall"),
    ] {
        failures.extend(harness::at_least(current, key, floor, what));
    }
    let same_size: Vec<Json> = prev
        .iter()
        .filter(|p| {
            current
                .iter()
                .any(|c| num(c, "records") == num(p, "records"))
        })
        .cloned()
        .collect();
    failures.extend(harness::below(
        &same_size,
        current,
        "pairs_per_sec",
        0.8,
        "pairs/sec regression",
    ));
    failures
}

fn main() {
    let records: usize = std::env::var(RECORDS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    harness::child(CHILD_ENV, || run_child(records));
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let records = args
        .iter()
        .position(|a| a == "--records")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(records);
    let prev = harness::read(OUT_FILE, &GATED);
    let current = harness::sweep(CHILD_ENV, &[(RECORDS_ENV, records.to_string())]);
    let baseline = prev.baseline_or(&current);
    if check {
        harness::enforce("blockbench", gate(&prev.current, &baseline, &current));
    }
    let ratio = |s: &Json, b: &Json, key| fixed(num(s, key) / num(b, key).max(1e-9), 3);
    let speedup = harness::vs_baseline(&baseline, &current, |s, b| {
        vec![
            ("pairs_per_sec_ratio", ratio(s, b, "pairs_per_sec")),
            ("index_ratio", ratio(s, b, "index_records_per_sec")),
        ]
    });
    let workload = format!(
        "sharded blocking: {records}-record EmCorpus, min_shared 2, df_ceiling 4096, lsh 8x2, \
         chunk {CHUNK}; stress {STRESS_RECORDS} records + 3 stopwords, df_ceiling 1024"
    );
    harness::write(
        OUT_FILE,
        &[
            ("workload", Json::Str(workload)),
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
        harness::parse(include_str!("../../../../BENCH_blocking.json"), &GATED).unwrap()
    }

    fn gate_on(current: &[Json]) -> Vec<String> {
        let r = recorded();
        gate(&r.current, &r.baseline, current)
    }

    #[test]
    fn unchanged_numbers_pass() {
        assert_eq!(gate_on(&recorded().current), Vec::<String>::new());
    }

    #[test]
    fn a_quarter_slower_fails_at_every_thread_count() {
        let current = recorded().current;
        let mut slower = current.clone();
        for key in ["pairs_per_sec", "index_records_per_sec"] {
            slower = harness::map_key(&slower, key, |v| v * 0.75);
        }
        let failures = gate_on(&slower);
        assert_eq!(failures.len(), current.len(), "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("pairs/sec regression")));
    }

    #[test]
    fn each_absolute_floor_trips_on_its_own() {
        let current = recorded().current;
        for (key, value, what) in [
            ("records", 999_999.0, "records indexed"),
            ("recall", 0.94, "slice recall"),
            ("stress_pruned_tokens", 2.0, "stopwords pruned"),
            ("stress_recall", 0.94, "stress match recall"),
        ] {
            let failures = gate_on(&harness::map_key(&current, key, |_| value));
            assert_eq!(failures.len(), current.len(), "{key}: {failures:?}");
            assert!(failures.iter().all(|f| f.contains(what)), "{failures:?}");
        }
    }
}
