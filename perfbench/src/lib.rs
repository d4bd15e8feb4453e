//! `rotom-perfbench`: one end-to-end and per-layer benchmark over four
//! workloads (`er_match`, `er_block`, `serve_match`, `meta_train`).
//!
//! Every layer is measured from outside: the benchmark times calls into
//! public functions of the workspace crates and drives the real
//! `rotom-serve` binary over sockets. See `README.md` beside this crate for
//! the workloads, the metrics and how to run them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub mod er;
pub mod meta;
pub mod serve;
pub mod stats;
pub mod trace;

/// End-to-end metrics: every workload reports every one (see README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics reported by the traced run. A layer a workload does
/// not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload headline figures that only some workloads have.
    ("er.records_per_s", "1/s"),
    ("er.match_f1", "share"),
    ("er.pair_recall", "share"),
    ("serve.light.p50_ms", "ms"),
    ("serve.light.p99_ms", "ms"),
    ("serve.heavy.p50_ms", "ms"),
    ("serve.heavy.p99_ms", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("train.wall_s", "s"),
    ("train.test_f1", "share"),
    ("train.single_class", "flag"),
    // rotom_datasets::csv
    ("csv.parse_s", "s"),
    ("csv.rows", "count"),
    // rotom_datasets::blocking
    ("blocking.build_s", "s"),
    ("blocking.probe_s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.candidates_per_record", "count"),
    ("blocking.useful_share", "share"),
    ("blocking.tokens_pruned", "count"),
    ("blocking.postings_pruned", "count"),
    ("blocking.peak_buffered_pairs", "count"),
    // rotom_text::serialize
    ("serialize.s", "s"),
    // rotom::model / rotom_nn::infer / kernels
    ("infer.score_s", "s"),
    ("infer.pairs_per_s", "1/s"),
    ("infer.mean_batch", "count"),
    ("infer.bytes_per_pair", "B"),
    ("infer.eval_s", "s"),
    ("kernels.gemm_naive", "count"),
    ("kernels.gemm_tiled_serial", "count"),
    ("kernels.gemm_tiled_parallel", "count"),
    // rotom_serve, client side and GET /metrics deltas
    ("serve.sent", "count"),
    ("serve.ok", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("http.server_mean_us", "us"),
    ("batcher.mean_fill", "count"),
    ("batcher.queue_wait_ms", "ms"),
    ("batcher.batches", "count"),
    ("admission.shed_total", "count"),
    ("plane.swaps", "count"),
    ("plane.swap_ms", "ms"),
    ("plane.cache_hit_rate", "share"),
    // rotom_serve, traced in-process replay of the recorded traffic
    ("http.parse_us", "us"),
    ("json.parse_us", "us"),
    ("plane.score_us", "us"),
    ("json.render_us", "us"),
    // rotom_augment
    ("augment.simple_s", "s"),
    ("augment.invda_s", "s"),
    ("augment.invda_changed_share", "share"),
    // rotom_meta::trainer
    ("meta.epoch_s", "s"),
    ("meta.steps", "count"),
    ("meta.step_ms", "ms"),
    ("meta.keep_rate", "share"),
    ("meta.mean_weight", "share"),
    ("meta.bytes_per_step", "B"),
    // set-up phases
    ("setup.pretrain_s", "s"),
    ("setup.invda_train_s", "s"),
    ("setup.matcher_train_s", "s"),
    // the trace itself
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "share"),
];

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["er_match", "er_block", "serve_match", "meta_train"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measuring budget of the run, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for files the run writes (checkpoints, spans).
    pub work_dir: PathBuf,
    /// Path of the `rotom-serve` binary.
    pub serve_bin: PathBuf,
    /// `rustc --version` of the toolchain that built the program.
    pub rustc: String,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 --work-dir D
    /// --serve-bin B --rustc V`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            work_dir: PathBuf::from("perfbench-work"),
            serve_bin: PathBuf::from("rotom-serve"),
            rustc: "unknown".into(),
        };
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--work-dir" => args.work_dir = PathBuf::from(&value),
                "--serve-bin" => args.serve_bin = PathBuf::from(&value),
                "--rustc" => args.rustc = value.clone(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Seed the documented figures are measured at (seed 9001 is held out for
/// confirming later claims; see README).
pub const DEFAULT_SEED: u64 = 1;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed output checks.
    pub check_failures: Vec<String>,
    /// Flags worth a reader's attention that do not fail the run.
    pub flags: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }
}

/// Run the workload named in `args` and print its result. Returns the
/// process exit code.
pub fn main_with(traced: bool) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} run by the wrong binary",
            args.trace as u8
        );
        return 2;
    }
    if traced {
        // Counting on: the GEMM tier counters only count with telemetry
        // enabled. Records go nowhere; only the counters are read.
        rotom_nn::telemetry::install_writer(Box::new(std::io::sink()));
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return 1;
    }
    let tracer = if traced {
        trace::Tracer::on()
    } else {
        trace::Tracer::off()
    };
    let result = match args.workload.as_str() {
        "er_match" => er::run_match(&args, &tracer),
        "er_block" => er::run_block(&args, &tracer),
        "serve_match" => serve::run(&args, &tracer),
        "meta_train" => meta::run(&args, &tracer),
        _ => unreachable!("validated by Args::parse"),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return 1;
        }
    };
    if traced {
        let path = args
            .work_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    if !traced {
        for (name, _) in END_TO_END {
            let measured = report.metrics.get(name).is_some_and(|v| v.is_finite());
            report.check(
                measured,
                format!("end-to-end metric {name} was not measured"),
            );
        }
    }
    print_report(&args, &report);
    0
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "# {} seed={} trace={} seconds={}",
        args.workload, args.seed, args.trace as u8, args.seconds
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.metrics.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    for f in &report.flags {
        println!("# flag: {f}");
    }
    for f in &report.check_failures {
        println!("# CHECK FAILED: {f}");
    }
    println!("# host {}", host_fingerprint(&args.rustc));
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            // JSON has no NaN; an unmeasurable figure reads as not run.
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.check_failures.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// Host fingerprint stamped on every result, as one JSON object.
pub fn host_fingerprint(rustc: &str) -> String {
    use rotom_nn::kernels::profile;
    format!(
        "{{\"available_parallelism\": {}, \"pool_width\": {}, \"fma_active\": {}, \"quant_simd_active\": {}, \"rustc\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rotom_nn::RotomPool::global().threads(),
        profile::fma_active(),
        profile::quant_simd_active(),
        rotom_serve::json::quote(rustc),
    )
}

/// High-water resident set size (`VmHWM`) of process `pid` (`"self"` for
/// this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. Unlike wall time it excludes time the host hands this machine's
/// CPUs to others (steal).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` matches the C `struct rusage` layout on 64-bit Linux
    // (two `timeval`s followed by fourteen `long`s) and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Run `setup` `reps` times, returning the last result and the median
/// wall of the repetitions.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        last = Some(setup()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&walls),
    ))
}

/// Per-layer times from the traced spans' self times.
pub fn set_layer_times(report: &mut Report, tr: &trace::Tracer) {
    const LAYERS: &[(&str, &str)] = &[
        ("csv.parse", "csv.parse_s"),
        ("blocking.build", "blocking.build_s"),
        ("blocking.probe", "blocking.probe_s"),
        ("serialize", "serialize.s"),
        ("infer.score", "infer.score_s"),
        ("infer.eval", "infer.eval_s"),
        ("augment.simple", "augment.simple_s"),
        ("augment.invda", "augment.invda_s"),
        ("meta.epoch", "meta.epoch_s"),
    ];
    let self_times = trace::self_times(&tr.spans());
    for (span, metric) in LAYERS {
        if let Some(&t) = self_times.get(span) {
            report.set(metric, t);
        }
    }
}

/// Bytes allocated since process start, counted by [`CountingAlloc`] when
/// the traced binary installs it (0 otherwise).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Global allocator that counts bytes allocated. Only the traced binary
/// installs it; the untraced run uses the system allocator untouched.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = rotom_serve::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let a = Args::parse(
            [
                "--workload",
                "er_block",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("er_block", 7, 3.0, true)
        );
        assert!(Args::parse(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["--seed"].iter().map(|s| s.to_string())).is_err());
    }
}
