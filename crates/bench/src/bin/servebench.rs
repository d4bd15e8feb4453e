//! Serving benchmark: end-to-end request latency (p50/p99) and sustained
//! requests/sec through `rotom-serve` — real sockets, real HTTP, the
//! windowed batcher, and the tape-free scoring plane — written to
//! `BENCH_serve.json`.
//!
//! The server runs **in-process** on an ephemeral port at scoring-pool
//! widths 1 and 8 (the pool width is a per-batcher setting, so unlike
//! `inferbench` no child re-exec is needed). Four client threads issue
//! keep-alive `POST /classify` requests as fast as the server answers
//! them; per-request wall times give exact p50/p99 (sorted samples, not
//! histogram buckets). The first run records the `baseline` section;
//! later runs update `current` and the `trajectory` ratios. A separate
//! `quant` section compares f32 vs i8 serving throughput and latency on
//! 40-token inputs (long enough that the i8 tier engages).
//!
//! Usage:
//!   cargo run --release --offline --bin servebench            # regenerate
//!   cargo run --release --offline --bin servebench -- --check # + fail on
//!     >20% req/sec regression or p99 latency tripling
//!
//! `ROTOM_BENCH_SCALE=quick` shrinks the request count for CI smoke runs.

use rotom_bench::harness::{self, fixed, num, row, Json, THREAD_COUNTS};
use rotom_serve::{
    demo_model, demo_model_config, Client, Endpoint, Server, ServerConfig, TaskPlane,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const OUT_FILE: &str = "BENCH_serve.json";
/// The recorded numbers the gates and the `trajectory` section read.
const GATED: [&str; 2] = ["requests_per_sec", "p99_latency_us"];

/// A small rotating input set: realistic token lengths, no cache to
/// help, every request does real forward work.
fn short_bodies() -> Vec<String> {
    [
        "a luminous heartfelt film with a stunning lead performance",
        "tedious and shapeless beyond any hope of rescue",
        "the plot works even when the pacing does not",
        "crisp writing elevates familiar material",
    ]
    .iter()
    .map(|t| format!("{{\"inputs\": [{}]}}", rotom_serve::json::quote(t)))
    .collect()
}

/// Heavier bodies for the quant on/off comparison: 8 inputs of 40 tokens
/// per request, so each round trip is dominated by scoring rather than the
/// batch window + HTTP overhead the short set measures.
fn long_bodies() -> Vec<String> {
    let words = [
        "a", "movie", "of", "rare", "depth", "and", "feeling", "that", "never", "loses",
    ];
    (0..4)
        .map(|i| {
            let inputs: Vec<String> = (0..8)
                .map(|k| {
                    let text: Vec<&str> =
                        (0..40).map(|j| words[(i + k + j) % words.len()]).collect();
                    rotom_serve::json::quote(&text.join(" "))
                })
                .collect();
            format!("{{\"inputs\": [{}]}}", inputs.join(", "))
        })
        .collect()
}

fn bench_config(threads: usize, window: Duration) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        window,
        max_batch: 32,
        score_threads: threads,
        score_cache: 0, // measure scoring, not memoization
        seed: 7,
        ..ServerConfig::default()
    }
}

/// Run one measured configuration: boot the server with a `threads`-wide
/// scoring pool over the default demo model and the standard 1ms window,
/// hammer it from `CLIENTS` keep-alive connections, and return throughput
/// + exact latency quantiles.
fn run_config(threads: usize, requests_per_client: usize) -> Json {
    let server = Server::start(bench_config(threads, Duration::from_millis(1)))
        .expect("servebench: server boots");
    measure(server, threads, requests_per_client, short_bodies())
}

/// Quant on/off configuration: an inference-scale classifier (d_model 128,
/// matching `inferbench`) served via [`Server::start_with_planes`], with a
/// 100µs window so the round trip is scoring-bound rather than
/// window-bound. The stock demo model (d_model 32) sits right at the i8
/// tier's size threshold, where quantize overhead cancels the GEMM win —
/// this row measures the tier on a model shaped like what serving is for.
fn run_quant_config(threads: usize, requests_per_client: usize, quant: bool) -> Json {
    let mut model_cfg = demo_model_config();
    model_cfg.d_model = 128;
    model_cfg.heads = 8;
    model_cfg.d_ff = 256;
    let planes = Endpoint::ALL.map(|e| {
        let (model, name) = demo_model(e.task_kind(), &model_cfg, 7);
        let plane = TaskPlane::new(e, name, model);
        if quant {
            plane.set_quant_mode(rotom_nn::QuantMode::I8);
        }
        plane
    });
    let server = Server::start_with_planes(
        bench_config(threads, Duration::from_micros(100)),
        Arc::new(planes),
    )
    .expect("servebench: quant server boots");
    measure(server, threads, requests_per_client, long_bodies())
}

/// Hammer a booted server from `CLIENTS` keep-alive connections and return
/// throughput + exact latency quantiles as a row. Shuts the server down.
fn measure(
    server: Server,
    threads: usize,
    requests_per_client: usize,
    bodies: Vec<String>,
) -> Json {
    let addr = server.local_addr();
    let bodies: Arc<Vec<String>> = Arc::new(bodies);

    // Warmup: one request per client count so connection setup and first
    // forward passes stay out of the measured window.
    {
        let mut c = Client::connect(addr).expect("warmup connect");
        for body in bodies.iter() {
            let resp = c.post("/classify", body).expect("warmup request");
            assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
        }
    }

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connect");
                let mut latencies_us = Vec::with_capacity(requests_per_client);
                for i in 0..requests_per_client {
                    let body = &bodies[(ci + i) % bodies.len()];
                    let t = Instant::now();
                    let resp = client.post("/classify", body).expect("request");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let quantile = |q: f64| -> f64 {
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    let total = latencies.len();
    let m = server.metrics();
    let batches = m.batches.load(std::sync::atomic::Ordering::Relaxed);
    let jobs = m.batched_jobs.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();

    let mean_batch_fill = if batches == 0 {
        0.0
    } else {
        jobs as f64 / batches as f64
    };
    row([
        ("threads", fixed(threads as f64, 0)),
        ("requests_per_sec", fixed(total as f64 / elapsed, 2)),
        ("p50_latency_us", fixed(quantile(0.5), 1)),
        ("p99_latency_us", fixed(quantile(0.99), 1)),
        ("mean_batch_fill", fixed(mean_batch_fill, 2)),
    ])
}

/// How hard the overload row leans on the server: clients vs. a
/// deliberately capacity-starved config (see `run_overload_config`).
const OVERLOAD_CLIENTS: usize = 8;
/// The deadline budget the overload row serves under; the p99 gate for
/// accepted requests is a multiple of this.
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(50);

/// Overload row: offered load far above capacity (8 hammering clients, a
/// queue capped at 4 jobs, a 50ms deadline budget) — the point is not
/// throughput but *degradation shape*. Admission control must shed the
/// excess with `503` + `Retry-After` while the p99 latency of **accepted**
/// requests stays bounded by the deadline budget instead of collapsing
/// into an unbounded queue wait. Every response must be a 200 or a shed —
/// anything else fails the bench.
fn run_overload_config(threads: usize, requests_per_client: usize) -> Json {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 4,
        score_threads: threads,
        score_cache: 0,
        seed: 7,
        max_queue: 4,
        deadline: OVERLOAD_DEADLINE,
        ..ServerConfig::default()
    })
    .expect("servebench: overload server boots");
    let addr = server.local_addr();
    let bodies: Arc<Vec<String>> = Arc::new(long_bodies());

    let start = Instant::now();
    let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
        .map(|ci| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("overload connect");
                let mut latencies_us = Vec::with_capacity(requests_per_client);
                let mut shed = 0u64;
                for i in 0..requests_per_client {
                    let body = &bodies[(ci + i) % bodies.len()];
                    let t = Instant::now();
                    let resp = client.post("/classify", body).expect("overload request");
                    match resp.status {
                        200 => latencies_us.push(t.elapsed().as_secs_f64() * 1e6),
                        503 => {
                            assert!(
                                resp.retry_after_secs.is_some(),
                                "sheds must carry Retry-After: {}",
                                resp.body
                            );
                            shed += 1;
                        }
                        other => panic!("overload run saw status {other}: {}", resp.body),
                    }
                }
                (latencies_us, shed)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for h in handles {
        let (lat, s) = h.join().expect("overload client thread");
        latencies.extend(lat);
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let accepted = latencies.len() as u64;
    let p99 = if latencies.is_empty() {
        0.0
    } else {
        let idx = ((0.99 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    row([
        ("threads", fixed(threads as f64, 0)),
        ("clients", fixed(OVERLOAD_CLIENTS as f64, 0)),
        (
            "deadline_ms",
            fixed(OVERLOAD_DEADLINE.as_millis() as f64, 0),
        ),
        (
            "offered_requests_per_sec",
            fixed((accepted + shed) as f64 / elapsed, 2),
        ),
        (
            "accepted_requests_per_sec",
            fixed(accepted as f64 / elapsed, 2),
        ),
        ("accepted", fixed(accepted as f64, 0)),
        ("shed", fixed(shed as f64, 0)),
        ("p99_accepted_latency_us", fixed(p99, 1)),
    ])
}

/// The `--check` gates. Sustained req/sec stays within 20% of the previous
/// `current` row. The p99 gate is deliberately loose (3x): at a few hundred
/// samples the tail is scheduler noise, so it only catches step-function
/// regressions (a lost batch window, a stall), while throughput, averaged
/// over every request, carries the tight bound. The overload gates are
/// absolute (no baseline): under 2x+ capacity offered load, excess must
/// actually shed, something must still be accepted, and the p99 of accepted
/// requests must stay within 4x the deadline budget, the signature of
/// admission control working. The 4x headroom absorbs scheduler noise;
/// latency *collapse* (unbounded queueing) is orders of magnitude, not 4x.
fn gate(prev: &[Json], _baseline: &[Json], current: &[Json], overload: &[Json]) -> Vec<String> {
    let mut failures = harness::below(prev, current, "requests_per_sec", 0.8, "req/sec regression");
    for (p, now) in harness::by_threads(prev, current) {
        let (was, is) = (num(p, "p99_latency_us"), num(now, "p99_latency_us"));
        if is > 3.0 * was {
            failures.push(format!(
                "p99 latency regression at {} thread(s): {was:.0}µs -> {is:.0}µs (>3x)",
                num(p, "threads")
            ));
        }
    }
    failures.extend(harness::at_least(
        overload,
        "shed",
        1.0,
        "overload shed count (queue cap not enforced)",
    ));
    failures.extend(harness::at_least(
        overload,
        "accepted",
        1.0,
        "overload accepted count (shedding everything)",
    ));
    let p99_bound_us = 4.0 * OVERLOAD_DEADLINE.as_secs_f64() * 1e6;
    for o in overload {
        let p99 = num(o, "p99_accepted_latency_us");
        if p99 > p99_bound_us {
            failures.push(format!(
                "overload at {} thread(s): accepted p99 {p99:.0}µs exceeds {p99_bound_us:.0}µs bound",
                num(o, "threads")
            ));
        }
    }
    failures
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = std::env::var("ROTOM_BENCH_SCALE").as_deref() == Ok("quick");
    let requests_per_client = if quick { 24 } else { 96 };
    let prev = harness::read(OUT_FILE, &GATED);

    let current: Vec<Json> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let s = run_config(t, requests_per_client);
            println!(
                "serve /classify, {t} score thread(s), {CLIENTS} clients: {:.0} req/s | p50 {:.0}µs p99 {:.0}µs | batch fill {:.2}",
                num(&s, "requests_per_sec"),
                num(&s, "p50_latency_us"),
                num(&s, "p99_latency_us"),
                num(&s, "mean_batch_fill")
            );
            s
        })
        .collect();

    // Quant on/off comparison: inference-scale model, 40-token inputs,
    // scoring-bound window (see `run_quant_config`). Informational, not
    // gated: the serving ratio is diluted by HTTP + batching overhead, so
    // the hard speedup floor lives in `inferbench --check` where the GEMMs
    // are measured directly.
    let quant_rows: Vec<Json> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let f = run_quant_config(t, requests_per_client, false);
            let q = run_quant_config(t, requests_per_client, true);
            let (f_rps, q_rps) = (num(&f, "requests_per_sec"), num(&q, "requests_per_sec"));
            println!(
                "serve /classify 40-token, {t} score thread(s): f32 {f_rps:.0} req/s (p99 {:.0}µs) | i8 {q_rps:.0} req/s (p99 {:.0}µs) | {:.2}x",
                num(&f, "p99_latency_us"),
                num(&q, "p99_latency_us"),
                q_rps / f_rps
            );
            row([
                ("threads", fixed(t as f64, 0)),
                ("f32_requests_per_sec", fixed(f_rps, 2)),
                ("i8_requests_per_sec", fixed(q_rps, 2)),
                ("i8_speedup", fixed(q_rps / f_rps, 3)),
                ("f32_p50_latency_us", fixed(num(&f, "p50_latency_us"), 1)),
                ("i8_p50_latency_us", fixed(num(&q, "p50_latency_us"), 1)),
                ("f32_p99_latency_us", fixed(num(&f, "p99_latency_us"), 1)),
                ("i8_p99_latency_us", fixed(num(&q, "p99_latency_us"), 1)),
            ])
        })
        .collect();

    // Overload rows: offered load > capacity; gated on shape, not speed.
    let overload_rows: Vec<Json> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let o = run_overload_config(t, requests_per_client);
            println!(
                "serve overload, {t} score thread(s), {OVERLOAD_CLIENTS} clients: offered {:.0} req/s | accepted {:.0} req/s ({}) | shed {} | accepted p99 {:.0}µs",
                num(&o, "offered_requests_per_sec"),
                num(&o, "accepted_requests_per_sec"),
                num(&o, "accepted"),
                num(&o, "shed"),
                num(&o, "p99_accepted_latency_us")
            );
            o
        })
        .collect();

    let baseline = prev.baseline_or(&current);
    if check {
        harness::enforce(
            "servebench",
            gate(&prev.current, &baseline, &current, &overload_rows),
        );
    }
    let ratio = |s: &Json, b: &Json, key| fixed(num(s, key) / num(b, key), 3);
    let trajectory = harness::vs_baseline(&baseline, &current, |s, b| {
        vec![
            ("throughput_ratio", ratio(s, b, "requests_per_sec")),
            ("p99_ratio", ratio(s, b, "p99_latency_us")),
        ]
    });
    harness::write(
        OUT_FILE,
        &[
            (
                "workload",
                Json::Str(
                    "rotom-serve POST /classify, 4 keep-alive clients, 1ms batch window, demo SST-2 model"
                        .into(),
                ),
            ),
            ("baseline", Json::Arr(baseline)),
            ("current", Json::Arr(current)),
            ("quant", Json::Arr(quant_rows)),
            ("overload", Json::Arr(overload_rows)),
            ("trajectory", Json::Arr(trajectory)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = include_str!("../../../../BENCH_serve.json");

    fn recorded() -> harness::Recorded {
        harness::parse(FILE, &GATED).unwrap()
    }

    fn overload() -> Vec<Json> {
        let doc = harness::json::parse(FILE).unwrap();
        doc.get("overload").and_then(Json::as_arr).unwrap().to_vec()
    }

    fn gate_on(current: &[Json], overload: &[Json]) -> Vec<String> {
        let r = recorded();
        gate(&r.current, &r.baseline, current, overload)
    }

    #[test]
    fn unchanged_numbers_pass() {
        assert_eq!(
            gate_on(&recorded().current, &overload()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_quarter_slower_fails_at_every_thread_count() {
        let current = recorded().current;
        let slower = harness::map_key(&current, "requests_per_sec", |v| v * 0.75);
        let failures = gate_on(&slower, &overload());
        assert_eq!(failures.len(), current.len(), "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("req/sec regression")));
    }

    #[test]
    fn each_latency_and_overload_limit_trips_on_its_own() {
        let current = recorded().current;
        let tail = harness::map_key(&current, "p99_latency_us", |v| v * 3.01);
        let failures = gate_on(&tail, &overload());
        assert_eq!(failures.len(), current.len(), "{failures:?}");
        assert!(failures
            .iter()
            .all(|f| f.contains("p99 latency regression")));

        for (key, value, what) in [
            ("shed", 0.0, "queue cap not enforced"),
            ("accepted", 0.0, "shedding everything"),
            (
                "p99_accepted_latency_us",
                200_001.0,
                "exceeds 200000µs bound",
            ),
        ] {
            let rows = harness::map_key(&overload(), key, |_| value);
            let failures = gate_on(&current, &rows);
            assert_eq!(failures.len(), rows.len(), "{key}: {failures:?}");
            assert!(failures.iter().all(|f| f.contains(what)), "{failures:?}");
        }
    }
}
