//! Bulk entity resolution: `er_match` (CSV → index → candidates →
//! serialize → score → matches) and `er_block` (CSV → index → candidates
//! at a larger scale, with stopwords the df ceiling prunes).

use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeated_setup, Args, Report};
use rotom::pipeline::prepare_base;
use rotom::{RotomConfig, TinyLm};
use rotom_bench::{Scale, Suite};
use rotom_datasets::blocking::{stream_candidates, BlockingConfig, IndexBuilder, IndexStats};
use rotom_datasets::csv::{rows_to_records, table_chunks, write_row};
use rotom_datasets::em::block_candidates;
use rotom_datasets::{CorpusConfig, CorpusSide, EmCorpus, TaskDataset, TaskKind};
use rotom_meta::{MetaTarget, WeightedItem};
use rotom_nn::kernels::profile;
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};
use rotom_text::{serialize_pair, Example, Record};
use std::time::Instant;

/// Entities per side scored by `er_match`.
const MATCH_ENTITIES: usize = 6_000;
/// Extra entities whose labelled pairs fine-tune the matcher (disjoint
/// from the scored ones).
const MATCH_TRAIN_ENTITIES: usize = 300;
/// Entities per side blocked by `er_block`.
const BLOCK_ENTITIES: usize = 100_000;
/// Stopwords welded onto every `er_block` record.
const BLOCK_STOPWORDS: usize = 3;
/// Document-frequency ceiling of both workloads' index.
const DF_CEILING: usize = 1024;
/// Right-side CSV rows per index-build chunk.
const BUILD_CHUNK: usize = 8192;
/// Left-side CSV rows per chunk in `er_match` (the latency unit).
const MATCH_CHUNK: usize = 512;
/// Left-side CSV rows per chunk in `er_block`.
const BLOCK_CHUNK: usize = 4096;
/// Candidate buffer of the streaming pipeline.
const MAX_BUFFERED: usize = 1 << 14;
/// Slice on which `er_match` checks candidates against exhaustive blocking.
const CHECK_SLICE: usize = 2000;
/// `er_block` set-up repetitions whose median is `setup_s`.
const BLOCK_SETUP_REPS: usize = 5;
/// `er_match` set-up repetitions. Its set-up pre-trains and fine-tunes the
/// matcher, about 8 s on a 2-core host, so it runs once and `setup_s` is
/// steadied across runs.
const MATCH_SETUP_REPS: usize = 1;
/// Matcher fine-tuning epochs.
const MATCHER_EPOCHS: usize = 3;

fn blocking_config() -> BlockingConfig {
    BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(DF_CEILING),
        lsh: None,
        max_buffered_pairs: MAX_BUFFERED,
        ..BlockingConfig::default()
    }
}

/// Render one side of the corpus as CSV text.
fn render_csv(corpus: &EmCorpus, side: CorpusSide, n: usize) -> String {
    let mut out = write_row(&["title", "description"]);
    out.push('\n');
    for chunk in (0..n).step_by(BUILD_CHUNK) {
        for r in corpus.chunk(side, chunk..(chunk + BUILD_CHUNK).min(n)) {
            let field = |name: &str| r.get(name).unwrap_or("").to_string();
            out.push_str(&write_row(&[&field("title"), &field("description")]));
            out.push('\n');
        }
    }
    out
}

/// Parsed right side plus its index.
struct Indexed {
    right: Vec<Record>,
    stats: IndexStats,
    index: rotom_datasets::blocking::ShardedIndex,
}

/// CSV → records → `IndexBuilder` over the right side.
fn build_index(
    csv_text: &str,
    pool: &RotomPool,
    tr: &Tracer,
    parent: u64,
) -> Result<Indexed, String> {
    let mut right = Vec::new();
    let mut builder = IndexBuilder::new(blocking_config());
    let mut chunks = tr
        .span("csv.parse", parent, 0, |_| {
            table_chunks(csv_text, BUILD_CHUNK)
        })
        .map_err(|e| e.to_string())?;
    let header = chunks.header().to_vec();
    loop {
        let rows = tr.span("csv.parse", parent, 0, |_| chunks.next());
        let Some(rows) = rows else { break };
        let rows = rows.map_err(|e| e.to_string())?;
        let records = tr.span("csv.parse", parent, 0, |_| rows_to_records(&header, &rows));
        tr.span("blocking.build", parent, 0, |_| {
            builder.add_chunk(&records, pool)
        });
        right.extend(records);
    }
    let index = tr.span("blocking.build", parent, 0, |_| builder.finish());
    Ok(Indexed {
        right,
        stats: index.stats(),
        index,
    })
}

/// Labelled pairs from entities `range` of `corpus`: each entity's true
/// pair, plus up to two non-matches that share blocking tokens with it
/// (random partners when fewer share).
fn labelled_pairs(corpus: &EmCorpus, range: std::ops::Range<usize>, seed: u64) -> Vec<Example> {
    let left = corpus.chunk(CorpusSide::Left, range.clone());
    let right = corpus.chunk(CorpusSide::Right, range);
    let n = left.len();
    let mut hard: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (l, r) in block_candidates(&left, &right, 2) {
        if l != r && hard[l].len() < 2 {
            hard[l].push(r);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(3 * n);
    for i in 0..n {
        out.push(Example::new(serialize_pair(&left[i], &right[i]), 1));
        while hard[i].len() < 2 {
            let j = rng.random_range(0..n);
            if j != i {
                hard[i].push(j);
            }
        }
        for &j in &hard[i] {
            out.push(Example::new(serialize_pair(&left[i], &right[j]), 0));
        }
    }
    out
}

/// Fine-tune the EM-domain matcher on labelled corpus pairs.
fn train_matcher(corpus: &EmCorpus, cfg: &RotomConfig, seed: u64, report: &mut Report) -> TinyLm {
    let train = labelled_pairs(
        corpus,
        MATCH_ENTITIES..MATCH_ENTITIES + MATCH_TRAIN_ENTITIES,
        seed,
    );
    let task = TaskDataset {
        name: "em-corpus".into(),
        kind: TaskKind::EntityMatching,
        num_classes: 2,
        train_pool: train.clone(),
        test: Vec::new(),
        unlabeled: Vec::new(),
    };
    let t = Instant::now();
    let base = prepare_base(&task, cfg, seed);
    report.set("setup.pretrain_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut model = base.instantiate(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7c);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for _ in 0..MATCHER_EPOCHS {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for batch in order.chunks(cfg.train.batch_size) {
            let items: Vec<WeightedItem> = batch
                .iter()
                .map(|&i| WeightedItem::hard(train[i].tokens.clone(), train[i].label, 2))
                .collect();
            model.weighted_loss_backward(&items, true, &mut rng);
            model.optimizer_step();
        }
    }
    report.set("setup.matcher_train_s", t.elapsed().as_secs_f64());
    model
}

struct MatchSetup {
    left_csv: String,
    right_csv: String,
    model: TinyLm,
}

/// One `er_match` pass's outputs.
struct MatchPass {
    wall: f64,
    /// CPU time of the pass, all threads.
    cpu: f64,
    /// CPU time of each left chunk, all threads.
    chunk_cpu_ms: Vec<f64>,
    matches: Vec<(usize, usize)>,
    candidates: u64,
    /// Candidate pairs inside the check slice, with the scores the pass
    /// computed for them.
    slice: Vec<((usize, usize), Vec<f32>)>,
    stats: IndexStats,
    peak_buffered: usize,
    pairs_scored: u64,
    batches: u64,
    score_bytes: u64,
    /// Ground-truth pairs among the candidates.
    true_candidates: usize,
}

fn match_pass(s: &MatchSetup, pool: &RotomPool, tr: &Tracer) -> Result<MatchPass, String> {
    let (t0, cpu0) = (Instant::now(), crate::process_cpu_s());
    let (root, start) = (tr.fresh_id(), tr.now());
    let idx = build_index(&s.right_csv, pool, tr, root)?;
    let mut out = MatchPass {
        wall: 0.0,
        cpu: 0.0,
        chunk_cpu_ms: Vec::new(),
        matches: Vec::new(),
        candidates: 0,
        slice: Vec::new(),
        stats: idx.stats,
        peak_buffered: 0,
        pairs_scored: 0,
        batches: 0,
        score_bytes: 0,
        true_candidates: 0,
    };
    let mut chunks = tr
        .span("csv.parse", root, 0, |_| {
            table_chunks(&s.left_csv, MATCH_CHUNK)
        })
        .map_err(|e| e.to_string())?;
    let header = chunks.header().to_vec();
    let mut offset = 0usize;
    loop {
        let cpu_c = crate::process_cpu_s();
        let group = tr.fresh_id();
        let Some(rows) = tr.span("csv.parse", root, group, |_| chunks.next()) else {
            break;
        };
        let rows = rows.map_err(|e| e.to_string())?;
        let left = tr.span("csv.parse", root, group, |_| {
            rows_to_records(&header, &rows)
        });
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let stats = tr.span("blocking.probe", root, group, |id| {
            stream_candidates(&idx.index, std::iter::once(left.clone()), pool, |batch| {
                tr.span("blocking.sink", id, group, |_| {
                    pairs.extend_from_slice(batch)
                })
            })
        });
        out.peak_buffered = out.peak_buffered.max(stats.peak_buffered_pairs);
        out.candidates += stats.candidates;
        out.true_candidates += pairs.iter().filter(|&&(l, r)| offset + l == r).count();
        let inputs: Vec<Vec<String>> = tr.span("serialize", root, group, |_| {
            pairs
                .iter()
                .map(|&(l, r)| serialize_pair(&left[l], &idx.right[r]))
                .collect()
        });
        let before = crate::allocated_bytes();
        let scores = tr.span("infer.score", root, group, |_| {
            s.model.score_batch(&inputs, pool)
        });
        out.score_bytes += crate::allocated_bytes() - before;
        out.pairs_scored += inputs.len() as u64;
        out.batches += 1;
        // Argmax over each left record's candidates; a match needs p >= 0.5.
        let mut best: Vec<Option<(f32, usize)>> = vec![None; left.len()];
        for (&(l, r), p) in pairs.iter().zip(&scores) {
            if best[l].is_none_or(|(bp, _)| p[1] > bp) {
                best[l] = Some((p[1], r));
            }
            if offset + l < CHECK_SLICE && r < CHECK_SLICE {
                out.slice.push(((offset + l, r), p.clone()));
            }
        }
        out.matches.extend(
            best.iter()
                .enumerate()
                .filter_map(|(l, b)| b.filter(|&(p, _)| p >= 0.5).map(|(_, r)| (offset + l, r))),
        );
        offset += left.len();
        out.chunk_cpu_ms
            .push((crate::process_cpu_s() - cpu_c) * 1e3);
    }
    out.wall = t0.elapsed().as_secs_f64();
    out.cpu = crate::process_cpu_s() - cpu0;
    record_pass(tr, root, start);
    Ok(out)
}

/// Record the root span of a pass.
fn record_pass(tr: &Tracer, id: u64, start: f64) {
    tr.record(crate::trace::Span {
        name: "pass",
        id,
        parent: 0,
        group: 0,
        start,
        end: tr.now(),
    });
}

/// Overhead and unattributed share of a traced pass, plus layer times.
fn set_trace_figures(report: &mut Report, tr: &Tracer, plain_wall: f64, traced_wall: f64) {
    report.set("trace.overhead_s", traced_wall - plain_wall);
    let spans = tr.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "pass")
        .expect("traced pass recorded");
    report.set(
        "trace.unattributed_share",
        crate::trace::uncovered_share(&spans, root.start, root.end, &["pass"]),
    );
    crate::set_layer_times(report, tr);
}

/// F1 of predicted matches against the ground-truth `(i, i)` pairs.
fn match_f1(matches: &[(usize, usize)], n: usize) -> f64 {
    let tp = matches.iter().filter(|(l, r)| l == r).count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let p = tp / matches.len() as f64;
    let r = tp / n as f64;
    2.0 * p * r / (p + r)
}

/// Measure repeated passes until `seconds` elapse (at least `min_passes`).
fn measure<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || t.elapsed().as_secs_f64() < seconds {
        out.push(pass()?);
    }
    Ok(out)
}

/// The `er_match` workload.
pub fn run_match(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let pool = RotomPool::global();
    let mut report = Report::default();
    let cfg = Suite::new(Scale::Quick).rotom_for(TaskKind::EntityMatching);
    let seed = split_seed(args.seed, 0xe8);
    let (setup, setup_s) = repeated_setup(MATCH_SETUP_REPS, || {
        let corpus = EmCorpus::new(CorpusConfig {
            num_entities: MATCH_ENTITIES + MATCH_TRAIN_ENTITIES,
            stopwords: 0,
            seed,
            ..CorpusConfig::default()
        });
        Ok(MatchSetup {
            left_csv: render_csv(&corpus, CorpusSide::Left, MATCH_ENTITIES),
            right_csv: render_csv(&corpus, CorpusSide::Right, MATCH_ENTITIES),
            model: train_matcher(&corpus, &cfg, seed, &mut report),
        })
    })?;
    report.set("setup_s", setup_s);

    let gemm0 = profile::gemm_counters();
    let passes = if tr.enabled() {
        // Traced: a warm-up pass, an untraced pass, then a traced pass of
        // the same work; the last two compare like with like.
        let warm = match_pass(&setup, pool, &Tracer::off())?;
        let plain = match_pass(&setup, pool, &Tracer::off())?;
        let traced = match_pass(&setup, pool, tr)?;
        set_trace_figures(&mut report, tr, plain.wall, traced.wall);
        vec![warm, plain, traced]
    } else {
        measure(args.seconds, 2, || match_pass(&setup, pool, tr))?
    };
    let gemm1 = profile::gemm_counters();
    let last = passes.last().unwrap();
    let n = MATCH_ENTITIES;

    // Output checks. Every pass must agree exactly (determinism).
    for p in &passes {
        report.check(
            p.matches == last.matches,
            "er_match passes disagree on matches",
        );
    }
    report.check(
        last.stats.tokens_pruned == 0,
        "er_match index pruned tokens; the workload must bypass pruning",
    );
    check_slice(&setup, last, pool, &mut report);

    let f1 = match_f1(&last.matches, n);
    report.check(f1 > 0.5, format!("er_match F1 {f1:.4} is not above 0.5"));
    // End-to-end figures in CPU time, the throughput from the fastest pass
    // (see README); wall time per layer.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let best_cpu = passes.iter().map(|p| p.cpu).fold(f64::INFINITY, f64::min);
    let chunk_cpu_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunk_cpu_ms.iter().copied())
        .collect();
    let records_per_s = 2.0 * n as f64 / median(&walls);
    report.set("throughput_per_s", 2.0 * n as f64 / best_cpu);
    report.set("p50_ms", summarize(&chunk_cpu_ms).p50);
    report.set("peak_rss_mb", peak_rss_mb("self")?);
    report.set("er.records_per_s", records_per_s);
    report.set("er.match_f1", f1);
    report.set("er.pair_recall", last.true_candidates as f64 / n as f64);
    report.set("csv.rows", 2.0 * n as f64);
    set_blocking(
        &mut report,
        &last.stats,
        last.candidates,
        n,
        last.peak_buffered,
        last.true_candidates,
    );
    if tr.enabled() {
        let score_s = report.metrics["infer.score_s"];
        report.set("infer.pairs_per_s", last.pairs_scored as f64 / score_s);
        report.set(
            "infer.mean_batch",
            last.pairs_scored as f64 / last.batches.max(1) as f64,
        );
        report.set(
            "infer.bytes_per_pair",
            last.score_bytes as f64 / last.pairs_scored.max(1) as f64,
        );
        report.set("kernels.gemm_naive", (gemm1.0 - gemm0.0) as f64);
        report.set("kernels.gemm_tiled_serial", (gemm1.1 - gemm0.1) as f64);
        report.set("kernels.gemm_tiled_parallel", (gemm1.2 - gemm0.2) as f64);
    }
    report.attempted = passes.iter().map(|p| p.pairs_scored).sum();
    Ok(report)
}

/// Blocking-layer figures of one pass over `n_left` left records.
fn set_blocking(
    report: &mut Report,
    stats: &IndexStats,
    candidates: u64,
    n_left: usize,
    peak_buffered: usize,
    true_pairs: usize,
) {
    report.set("blocking.candidates", candidates as f64);
    report.set(
        "blocking.candidates_per_record",
        candidates as f64 / n_left as f64,
    );
    report.set(
        "blocking.useful_share",
        true_pairs as f64 / candidates.max(1) as f64,
    );
    report.set("blocking.tokens_pruned", stats.tokens_pruned as f64);
    report.set("blocking.postings_pruned", stats.postings_pruned as f64);
    report.set("blocking.peak_buffered_pairs", peak_buffered as f64);
}

/// The `er_match` output checks on the `CHECK_SLICE` × `CHECK_SLICE` slice:
/// streamed candidates equal exhaustive `block_candidates`, and the pass's
/// scores are bit-identical to one direct `score_batch` over those pairs.
fn check_slice(s: &MatchSetup, pass: &MatchPass, pool: &RotomPool, report: &mut Report) {
    let slice = |text: &str| {
        let mut chunks = table_chunks(text, CHECK_SLICE).expect("rendered CSV parses");
        let rows = chunks
            .next()
            .expect("slice rows")
            .expect("rendered CSV parses");
        rows_to_records(chunks.header(), &rows)
    };
    let (left, right) = (slice(&s.left_csv), slice(&s.right_csv));
    let exact = block_candidates(&left, &right, 2);
    let mut streamed: Vec<(usize, usize)> = pass.slice.iter().map(|(p, _)| *p).collect();
    streamed.sort_unstable();
    report.check(streamed == exact, format!(
        "streamed candidates on the {CHECK_SLICE}x{CHECK_SLICE} slice differ from block_candidates ({} vs {})",
        streamed.len(),
        exact.len()
    ));
    let inputs: Vec<Vec<String>> = pass
        .slice
        .iter()
        .map(|&((l, r), _)| serialize_pair(&left[l], &right[r]))
        .collect();
    let direct = s.model.score_batch(&inputs, pool);
    let same = direct.iter().zip(&pass.slice).all(|(d, (_, p))| {
        d.iter()
            .map(|v| v.to_bits())
            .eq(p.iter().map(|v| v.to_bits()))
    });
    report.check(
        same,
        "pipeline scores differ from a direct score_batch on the slice pairs",
    );
}

struct BlockSetup {
    left_csv: String,
    right_csv: String,
}

/// One `er_block` pass's outputs.
struct BlockPass {
    wall: f64,
    /// CPU time of the pass, all threads.
    cpu: f64,
    /// CPU time of each left chunk, all threads.
    chunk_cpu_ms: Vec<f64>,
    stats: IndexStats,
    candidates: u64,
    true_candidates: usize,
    peak_buffered: usize,
    /// Longest candidate list of any one left record.
    max_list: usize,
    /// Whether every batch arrived sorted and in range.
    well_formed: bool,
    rows: usize,
}

fn block_pass(
    s: &BlockSetup,
    n: usize,
    pool: &RotomPool,
    tr: &Tracer,
) -> Result<BlockPass, String> {
    let (t0, cpu0) = (Instant::now(), crate::process_cpu_s());
    let (root, start) = (tr.fresh_id(), tr.now());
    let idx = build_index(&s.right_csv, pool, tr, root)?;
    let mut out = BlockPass {
        wall: 0.0,
        cpu: 0.0,
        chunk_cpu_ms: Vec::new(),
        stats: idx.stats,
        candidates: 0,
        true_candidates: 0,
        peak_buffered: 0,
        max_list: 0,
        well_formed: true,
        rows: idx.right.len(),
    };
    drop(idx.right);
    let mut chunks = tr
        .span("csv.parse", root, 0, |_| {
            table_chunks(&s.left_csv, BLOCK_CHUNK)
        })
        .map_err(|e| e.to_string())?;
    let header = chunks.header().to_vec();
    let mut offset = 0usize;
    // Counting sink state: the current left id's run length and the last
    // pair seen, to check ordering across batches.
    let (mut run_left, mut run_len, mut last) = (usize::MAX, 0usize, None::<(usize, usize)>);
    loop {
        let cpu_c = crate::process_cpu_s();
        let group = tr.fresh_id();
        let Some(rows) = tr.span("csv.parse", root, group, |_| chunks.next()) else {
            break;
        };
        let rows = rows.map_err(|e| e.to_string())?;
        let left = tr.span("csv.parse", root, group, |_| {
            rows_to_records(&header, &rows)
        });
        let len = left.len();
        let stats = tr.span("blocking.probe", root, group, |id| {
            stream_candidates(&idx.index, std::iter::once(left), pool, |batch| {
                tr.span("blocking.sink", id, group, |_| {
                    for &(l, r) in batch {
                        let pair = (offset + l, r);
                        out.well_formed &= last.is_none_or(|p| p < pair) && r < n;
                        last = Some(pair);
                        if pair.0 == pair.1 {
                            out.true_candidates += 1;
                        }
                        if pair.0 == run_left {
                            run_len += 1;
                        } else {
                            (run_left, run_len) = (pair.0, 1);
                        }
                        out.max_list = out.max_list.max(run_len);
                    }
                })
            })
        });
        out.candidates += stats.candidates;
        out.peak_buffered = out.peak_buffered.max(stats.peak_buffered_pairs);
        out.rows += len;
        offset += len;
        out.chunk_cpu_ms
            .push((crate::process_cpu_s() - cpu_c) * 1e3);
    }
    out.wall = t0.elapsed().as_secs_f64();
    out.cpu = crate::process_cpu_s() - cpu0;
    record_pass(tr, root, start);
    Ok(out)
}

/// The `er_block` workload.
pub fn run_block(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let pool = RotomPool::global();
    let mut report = Report::default();
    let n = BLOCK_ENTITIES;
    let seed = split_seed(args.seed, 0xb1);
    let (setup, setup_s) = repeated_setup(BLOCK_SETUP_REPS, || {
        let corpus = EmCorpus::new(CorpusConfig {
            num_entities: n,
            stopwords: BLOCK_STOPWORDS,
            seed,
            ..CorpusConfig::default()
        });
        Ok(BlockSetup {
            left_csv: render_csv(&corpus, CorpusSide::Left, n),
            right_csv: render_csv(&corpus, CorpusSide::Right, n),
        })
    })?;
    report.set("setup_s", setup_s);
    let passes = if tr.enabled() {
        let warm = block_pass(&setup, n, pool, &Tracer::off())?;
        let plain = block_pass(&setup, n, pool, &Tracer::off())?;
        let traced = block_pass(&setup, n, pool, tr)?;
        set_trace_figures(&mut report, tr, plain.wall, traced.wall);
        vec![warm, plain, traced]
    } else {
        measure(args.seconds, 2, || block_pass(&setup, n, pool, tr))?
    };
    let last = passes.last().unwrap();
    for p in &passes {
        report.check(
            (p.candidates, p.true_candidates) == (last.candidates, last.true_candidates),
            "er_block passes disagree on candidates",
        );
        report.check(
            p.well_formed,
            "candidate pairs arrived out of order or out of range",
        );
        report.check(
            p.peak_buffered <= MAX_BUFFERED + p.max_list,
            format!(
                "peak_buffered_pairs {} exceeds max_buffered_pairs {MAX_BUFFERED} + one record's list {}",
                p.peak_buffered, p.max_list
            ),
        );
    }
    report.check(
        last.stats.tokens_pruned >= BLOCK_STOPWORDS,
        format!(
            "df ceiling pruned {} tokens, fewer than the {BLOCK_STOPWORDS} stopwords",
            last.stats.tokens_pruned
        ),
    );
    let recall = last.true_candidates as f64 / n as f64;
    report.check(recall >= 0.9, format!("pair recall {recall:.4} below 0.9"));

    // End-to-end figures in CPU time, the throughput from the fastest pass
    // (see README); wall time per layer.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let best_cpu = passes.iter().map(|p| p.cpu).fold(f64::INFINITY, f64::min);
    let chunk_cpu_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunk_cpu_ms.iter().copied())
        .collect();
    let records_per_s = 2.0 * n as f64 / median(&walls);
    report.set("throughput_per_s", 2.0 * n as f64 / best_cpu);
    report.set("p50_ms", summarize(&chunk_cpu_ms).p50);
    report.set("peak_rss_mb", peak_rss_mb("self")?);
    report.set("er.records_per_s", records_per_s);
    report.set("er.pair_recall", recall);
    report.set("csv.rows", last.rows as f64);
    set_blocking(
        &mut report,
        &last.stats,
        last.candidates,
        n,
        last.peak_buffered,
        last.true_candidates,
    );
    report.attempted = passes.iter().map(|p| p.rows as u64).sum();
    Ok(report)
}
