//! `serve_match`: an open loop of seeded Poisson arrivals against the real
//! `rotom-serve` binary, with hot swaps between two checkpoints, plus (in
//! the traced run) an in-process replay of the recorded traffic through
//! the server's own parse, score and render calls.

use crate::stats::{goodput_rung, ladder, poisson_schedule, summarize, Arrival, StepOutcome};
use crate::trace::{Span, Tracer};
use crate::{peak_rss_mb, repeated_setup, Args, Report};
use rotom_datasets::em::{self, EmConfig, EmFlavor};
use rotom_datasets::TaskKind;
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};
use rotom_serve::json::{self, Json};
use rotom_serve::{demo_model, demo_model_config, Client, Endpoint, TaskPlane};
use rotom_text::serialize_pair;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `rotom-serve`'s default `--seed`: the checkpoints are built from the
/// demo model at this seed so they load into the server's planes.
const SERVER_SEED: u64 = 7;
/// The light arrival rate, about 30% of capacity on a 2-core host.
const LIGHT_RPS: f64 = 200.0;
/// The heavy arrival rate, about 80% of capacity on a 2-core host.
const HEAVY_RPS: f64 = 520.0;
/// Requests per rate step.
const STEP_REQUESTS: usize = 1000;
/// Requests in each of the three parts of the light step.
const LIGHT_PART: usize = 400;
/// The latency limit on the tail percentile. Below the knee, p99 on a
/// 2-core host swings between about 10 and 35 ms from run to run (hot
/// swaps, neighbours), so a 25 ms limit would rank noise; at 50 ms the
/// goodput rung sits at the knee, where the backlog starts to grow.
const SLO_MS: f64 = 50.0;
/// Goodput ladder: from, to, and relative step between rungs.
const LADDER: (f64, f64, f64) = (200.0, 1400.0, 0.025);
/// Seconds between hot swaps.
const SWAP_EVERY_S: f64 = 0.25;
/// Responses checked bit for bit against in-process scoring.
const CHECKED_RESPONSES: usize = 200;
/// Share of inputs that repeat an earlier input.
const REPEAT_SHARE: f64 = 0.2;
/// Most inputs per request.
const MAX_INPUTS: usize = 16;
/// Server boots whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Poll interval of an idle load connection.
const POLL: Duration = Duration::from_micros(100);
/// Repeated inputs are drawn from this many most recent distinct inputs,
/// a working set that fits the server's 4096-entry score cache.
const REPEAT_WINDOW: usize = 1024;
/// Requests in flight per connection in a saturation part.
const SATURATE_DEPTH: usize = 8;
/// Saturation parts per run.
const SATURATE_PARTS: usize = 4;
/// Requests in each saturation part.
const SATURATE_PART: usize = 1000;
/// How long a step waits for stragglers after its last due time.
const DRAIN_S: f64 = 10.0;

/// Seeded `/match` traffic: each request carries 1–16 serialized pairs of
/// generated Abt-Buy-style records (the demo model's vocabulary family);
/// about one input in five repeats a recent one.
fn traffic(seed: u64, requests: usize) -> Vec<String> {
    let data = em::generate(
        EmFlavor::AbtBuy,
        &EmConfig {
            num_entities: 400,
            train_pairs: 800,
            test_pairs: 10,
            seed,
            ..EmConfig::default()
        },
    );
    let left: Vec<_> = data.train_pairs.iter().map(|p| &p.left).collect();
    let right: Vec<_> = data.train_pairs.iter().map(|p| &p.right).collect();
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x5e));
    let mut history: Vec<String> = Vec::new();
    (0..requests)
        .map(|_| {
            let k = rng.random_range(1..=MAX_INPUTS);
            let inputs: Vec<String> = (0..k)
                .map(|_| {
                    if !history.is_empty() && rng.random_bool(REPEAT_SHARE) {
                        let from = history.len().saturating_sub(REPEAT_WINDOW);
                        return history[rng.random_range(from..history.len())].clone();
                    }
                    let pair = serialize_pair(
                        left[rng.random_range(0..left.len())],
                        right[rng.random_range(0..right.len())],
                    );
                    let quoted: Vec<String> = pair.iter().map(|t| json::quote(t)).collect();
                    let input = format!("[{}]", quoted.join(","));
                    history.push(input.clone());
                    input
                })
                .collect();
            format!("{{\"inputs\": [{}]}}", inputs.join(","))
        })
        .collect()
}

/// The boot weights (checkpoint A) and a perturbed copy (checkpoint B).
fn write_checkpoints(dir: &Path) -> Result<[PathBuf; 2], String> {
    let (mut model, _) = demo_model(TaskKind::EntityMatching, &demo_model_config(), SERVER_SEED);
    let a = dir.join("serve-ckpt-a.bag");
    let b = dir.join("serve-ckpt-b.bag");
    model.save_checkpoint(&a).map_err(|e| e.to_string())?;
    let perturbed: Vec<f32> = model
        .snapshot()
        .iter()
        .enumerate()
        .map(|(i, v)| v * 0.9 + if i % 2 == 0 { 0.01 } else { -0.01 })
        .collect();
    model.restore(&perturbed);
    model.save_checkpoint(&b).map_err(|e| e.to_string())?;
    Ok([a, b])
}

/// The spawned server process; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Start `rotom-serve --addr 127.0.0.1:0` with default flags. Its
    /// stdout goes to a file, which is never closed under the server (it
    /// panics writing to a closed pipe), and the banner there names the
    /// bound port.
    fn spawn(bin: &Path, dir: &Path, tag: usize) -> Result<ServerProc, String> {
        let out_path = dir.join(format!("serve-{tag}.out"));
        let out = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
        let err = std::fs::File::create(dir.join(format!("serve-{tag}.err")))
            .map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().unwrap(),
        };
        let t = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(rest) = text.split("listening on http://").nth(1) {
                let addr = rest.lines().next().unwrap_or("").trim();
                proc.addr = addr
                    .parse()
                    .map_err(|_| format!("bad banner address {addr:?}"))?;
                break;
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("rotom-serve exited early: {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("rotom-serve printed no banner within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let health = Client::connect(proc.addr)
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz returned {}", health.status));
        }
        Ok(proc)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One scheduled item of a connection.
#[derive(Clone, Copy)]
enum Item {
    /// A `/match` request: index into the traffic.
    Match(usize),
    /// A hot swap loading checkpoint 0 (A) or 1 (B).
    Swap(usize),
}

/// What one item's exchange produced.
struct Outcome {
    item: Item,
    due: f64,
    sent: f64,
    done: Option<f64>,
    status: u16,
    retry_after: bool,
    body: String,
}

impl Outcome {
    /// An item sent (or due) with no response yet.
    fn unanswered(item: Item, due: f64, sent: f64) -> Outcome {
        Outcome {
            item,
            due,
            sent,
            done: None,
            status: 0,
            retry_after: false,
            body: String::new(),
        }
    }
}

/// A parsed response.
struct RawResponse {
    status: u16,
    retry_after: bool,
    body: String,
}

/// Pop one complete response off the front of `buf`.
fn take_response(buf: &mut Vec<u8>) -> Result<Option<RawResponse>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut len = 0usize;
    let mut retry_after = false;
    for l in lines {
        let (k, v) = l.split_once(':').unwrap_or((l, ""));
        if k.eq_ignore_ascii_case("content-length") {
            len = v.trim().parse().map_err(|_| "bad content-length")?;
        } else if k.eq_ignore_ascii_case("retry-after") {
            retry_after = true;
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    buf.drain(..total);
    Ok(Some(RawResponse {
        status,
        retry_after,
        body,
    }))
}

fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Match the complete responses in `buf` to the oldest pending items, in
/// order, stamping them done now.
fn record_responses(
    buf: &mut Vec<u8>,
    pending: &mut VecDeque<usize>,
    out: &mut [Outcome],
    t0: Instant,
) {
    let done = t0.elapsed().as_secs_f64();
    while let Ok(Some(resp)) = take_response(buf) {
        let Some(idx) = pending.pop_front() else {
            break;
        };
        let o = &mut out[idx];
        o.done = Some(done);
        o.status = resp.status;
        o.retry_after = resp.retry_after;
        o.body = resp.body;
    }
}

/// `write_all` on a non-blocking socket: retry on `WouldBlock`.
fn write_all_nonblocking(s: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match s.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Drive one keep-alive connection (opened if `stream` is `None`, and kept
/// open across steps) through its schedule, open loop: each
/// item is written when due, whether or not earlier responses are back
/// (pipelining), and responses are read as they arrive.
fn drive_conn(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    schedule: &[(f64, Item)],
    bodies: &[String],
    swaps: &[String; 2],
    t0: Instant,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let connect = || {
        TcpStream::connect(addr)
            .ok()
            .filter(|s| s.set_nodelay(true).is_ok() && s.set_nonblocking(true).is_ok())
    };
    if stream.is_none() {
        *stream = connect();
    }
    let last_due = schedule.last().map_or(0.0, |s| s.0);
    let mut next = 0usize;
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < schedule.len() && schedule[next].0 <= now {
            let (due, item) = schedule[next];
            let bytes = match item {
                Item::Match(i) => request_bytes("/match", &bodies[i]),
                Item::Swap(k) => request_bytes("/admin/swap", &swaps[k]),
            };
            let sent = t0.elapsed().as_secs_f64();
            let ok = stream
                .as_mut()
                .is_some_and(|s| write_all_nonblocking(s, &bytes).is_ok());
            out.push(Outcome::unanswered(item, due, sent));
            if ok {
                pending.push_back(out.len() - 1);
            }
            next += 1;
        }
        if pending.is_empty() && next == schedule.len() {
            break;
        }
        if now > last_due + DRAIN_S {
            break; // stragglers stay unanswered and count as failed
        }
        let Some(s) = stream.as_mut() else {
            // No connection: everything still due fails when sent.
            std::thread::sleep(POLL);
            continue;
        };
        match s.read(&mut chunk) {
            Ok(0) => {
                // The server closed: pending requests are lost. Reconnect
                // for the rest of the schedule.
                pending.clear();
                buf.clear();
                *stream = connect();
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                record_responses(&mut buf, &mut pending, &mut out, t0);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                // Nothing to read: nap until the next due time or one poll
                // interval. (Socket read timeouts round up to scheduler
                // ticks, which would make the generator late.)
                let wait = schedule
                    .get(next)
                    .map_or(POLL, |d| Duration::from_secs_f64((d.0 - now).max(0.0)));
                std::thread::sleep(wait.min(POLL));
            }
            Err(_) => {
                pending.clear();
                *stream = None;
            }
        }
    }
    if !pending.is_empty() || !buf.is_empty() {
        // Responses still owed: the connection cannot carry the next step.
        *stream = None;
    }
    out
}

/// Drive one keep-alive connection closed loop: keep `depth` requests in
/// flight, sending the next as each response arrives, until every item of
/// `items` is answered. Items left unsent on a broken connection fail.
fn drive_closed(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    items: &[usize],
    bodies: &[String],
    depth: usize,
    t0: Instant,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::with_capacity(items.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    if stream.is_none() {
        *stream = TcpStream::connect(addr)
            .ok()
            .filter(|s| s.set_nodelay(true).is_ok());
    }
    // Blocking reads with a timeout: a closed loop has nothing to do
    // between responses, so it need not poll.
    let mut live = stream.as_mut().is_some_and(|s| {
        s.set_nonblocking(false).is_ok()
            && s.set_read_timeout(Some(Duration::from_secs_f64(DRAIN_S)))
                .is_ok()
    });
    let mut next = 0usize;
    while live && (next < items.len() || !pending.is_empty()) {
        let s = stream.as_mut().expect("live connection");
        while live && next < items.len() && pending.len() < depth {
            let i = items[next];
            let sent = t0.elapsed().as_secs_f64();
            live = s.write_all(&request_bytes("/match", &bodies[i])).is_ok();
            out.push(Outcome::unanswered(Item::Match(i), sent, sent));
            pending.extend(live.then_some(out.len() - 1));
            next += 1;
        }
        match s.read(&mut chunk) {
            Ok(n) if n > 0 => {
                buf.extend_from_slice(&chunk[..n]);
                record_responses(&mut buf, &mut pending, &mut out, t0);
            }
            Ok(_) => live = false, // the server closed
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => live = false,
        }
    }
    for &i in &items[next..] {
        let sent = t0.elapsed().as_secs_f64();
        out.push(Outcome::unanswered(Item::Match(i), sent, sent));
    }
    // Back to the open loop's non-blocking mode, or drop a broken stream.
    if !live
        || !pending.is_empty()
        || !buf.is_empty()
        || stream
            .as_ref()
            .is_some_and(|s| s.set_nonblocking(true).is_err())
    {
        *stream = None;
    }
    out
}

/// Load-side state carried across steps.
struct Load<'a> {
    addr: SocketAddr,
    /// The keep-alive connections, one per load thread.
    streams: Vec<Option<TcpStream>>,
    traffic: &'a [String],
    swap_bodies: [String; 2],
    /// Next unused request of the traffic.
    cursor: usize,
    /// Swaps issued so far (the k-th loads B when k is odd, A when even).
    swaps_issued: usize,
    seed: u64,
}

/// One rate step's raw outcomes.
struct Step {
    /// The offered rate; for a saturation part, the ok responses per
    /// second it achieved.
    rate: f64,
    outcomes: Vec<Outcome>,
    wall: f64,
}

impl Load<'_> {
    /// Offer `requests` requests closed loop, `SATURATE_DEPTH` in flight
    /// per connection and no swaps, so the server always has a request
    /// waiting on every connection.
    fn saturate(&mut self, requests: usize) -> Step {
        let conns = self.streams.len();
        let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns];
        for k in 0..requests {
            per_conn[k % conns].push(self.cursor % self.traffic.len());
            self.cursor += 1;
        }
        let t0 = Instant::now();
        let (addr, bodies) = (self.addr, &self.traffic);
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .zip(&per_conn)
                .map(|(st, items)| {
                    scope.spawn(move || drive_closed(st, addr, items, bodies, SATURATE_DEPTH, t0))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let wall = outcomes.iter().filter_map(|o| o.done).fold(0.0, f64::max);
        Step {
            rate: outcomes.iter().filter(|o| o.status == 200).count() as f64 / wall.max(1e-9),
            outcomes,
            wall,
        }
    }

    /// Offer `requests` requests at `rate` with the seeded Poisson
    /// arrivals of schedule number `schedule`, round-robin over the
    /// connections, with swaps every `SWAP_EVERY_S`.
    fn step(&mut self, rate: f64, schedule: u64, requests: usize) -> Step {
        let due = poisson_schedule(rate, requests, split_seed(self.seed, schedule));
        let conns = self.streams.len();
        let mut per_conn: Vec<Vec<(f64, Item)>> = vec![Vec::new(); conns];
        for (k, &t) in due.iter().enumerate() {
            per_conn[k % conns].push((t, Item::Match(self.cursor % self.traffic.len())));
            self.cursor += 1;
        }
        let span = due.last().copied().unwrap_or(0.0);
        let mut t = SWAP_EVERY_S;
        while t < span {
            self.swaps_issued += 1;
            per_conn[0].push((t, Item::Swap(self.swaps_issued % 2)));
            t += SWAP_EVERY_S;
        }
        per_conn[0].sort_by(|a, b| a.0.total_cmp(&b.0));
        let t0 = Instant::now() + Duration::from_millis(5);
        let (addr, bodies, swaps) = (self.addr, &self.traffic, &self.swap_bodies);
        let streams = &mut self.streams;
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let mut conns = streams.iter_mut().zip(&per_conn);
            let (first, first_sched) = conns.next().expect("at least one connection");
            let handles: Vec<_> = conns
                .map(|(st, sched)| {
                    scope.spawn(move || drive_conn(st, addr, sched, bodies, swaps, t0))
                })
                .collect();
            let mut all = drive_conn(first, addr, first_sched, bodies, swaps, t0);
            for h in handles {
                all.extend(h.join().expect("load thread panicked"));
            }
            all
        });
        let wall = outcomes.iter().filter_map(|o| o.done).fold(0.0, f64::max);
        Step {
            rate,
            outcomes,
            wall,
        }
    }
}

impl Step {
    fn matches(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.item, Item::Match(_)))
    }

    fn outcome(&self) -> StepOutcome {
        let arrivals: Vec<Arrival> = self
            .matches()
            .map(|o| Arrival {
                due: o.due,
                sent: o.sent,
                done: o.done,
                ok: o.status == 200,
            })
            .collect();
        let shed = self.matches().filter(|o| o.status == 503).count();
        StepOutcome::from_arrivals(self.rate, &arrivals, shed, SLO_MS)
    }
}

/// Server-side counters read from `GET /metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    requests: f64,
    latency_mean_us: f64,
    batches: f64,
    jobs: f64,
    queue_wait_us: f64,
    shed_total: f64,
    swaps: f64,
    cache_hits: f64,
    cache_misses: f64,
}

fn server_counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let resp = Client::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let doc = json::parse(&resp.body)?;
    let num = |path: &[&str]| -> f64 {
        let mut v: Option<&Json> = Some(&doc);
        for k in path {
            v = v.and_then(|j| j.get(k));
        }
        v.and_then(Json::as_f64).unwrap_or(0.0)
    };
    Ok(ServerCounters {
        requests: num(&["endpoints", "match", "requests"]),
        latency_mean_us: num(&["endpoints", "match", "latency_us", "mean"]),
        batches: num(&["batcher", "batches"]),
        jobs: num(&["batcher", "jobs"]),
        queue_wait_us: num(&["batcher", "queue_wait_us"]),
        shed_total: num(&["batcher", "shed_total"]),
        swaps: num(&["swaps"]),
        cache_hits: num(&["endpoints", "match", "cache", "hits"]),
        cache_misses: num(&["endpoints", "match", "cache", "misses"]),
    })
}

/// Inputs of a parsed `/match` body, read the way the server does.
fn body_inputs(doc: &Json) -> Result<Vec<Vec<String>>, String> {
    let arr = doc
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or("no inputs")?;
    arr.iter()
        .map(|item| match item {
            Json::Str(s) => Ok(rotom_text::tokenize(s)),
            Json::Arr(tokens) => tokens
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "token not a string".to_string())
                })
                .collect(),
            _ => Err("bad input".to_string()),
        })
        .collect()
}

struct Setup {
    traffic: Vec<String>,
    checkpoints: [PathBuf; 2],
    server: ServerProc,
}

/// The `serve_match` workload.
pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = split_seed(args.seed, 0x5e7e);
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rungs = ladder(LADDER.0, LADDER.1, LADDER.2);
    let max_requests =
        STEP_REQUESTS * (4 + rungs.len().ilog2() as usize + 2) + SATURATE_PARTS * SATURATE_PART;
    let mut boots = 0;
    let mut setups = repeated_setup(SETUP_REPS, || {
        boots += 1;
        Ok(Setup {
            traffic: traffic(seed, max_requests),
            checkpoints: write_checkpoints(&args.work_dir)?,
            server: ServerProc::spawn(&args.serve_bin, &args.work_dir, boots)?,
        })
    })?;
    report.set("setup_s", setups.1);
    let setup = &mut setups.0;
    let quote_path = |p: &Path| json::quote(&p.to_string_lossy());
    let mut load = Load {
        addr: setup.server.addr,
        streams: (0..conns).map(|_| None).collect(),
        traffic: &setup.traffic,
        swap_bodies: [0, 1].map(|k| {
            format!(
                "{{\"endpoint\": \"match\", \"checkpoint\": {}}}",
                quote_path(&setup.checkpoints[k])
            )
        }),
        cursor: 0,
        swaps_issued: 0,
        seed,
    };

    // The light step runs in parts spread over the run (before the heavy
    // step, after it, and after the ladder); its median is the median of
    // the parts' medians, so one slow stretch of the host moves one part.
    // Saturation parts are spread the same way, outside the window of the
    // server counters. Host interference only ever slows a part down, so
    // the throughput is the best part's rate.
    let mut saturate_parts = vec![load.saturate(SATURATE_PART)];
    let before = server_counters(load.addr)?;
    let mut light_parts = vec![load.step(LIGHT_RPS, 10, LIGHT_PART)];
    let heavy = load.step(HEAVY_RPS, 2, STEP_REQUESTS);
    light_parts.push(load.step(LIGHT_RPS, 11, LIGHT_PART));
    let after = server_counters(load.addr)?;
    saturate_parts.push(load.saturate(SATURATE_PART));
    // Goodput is a per-layer figure, so only the traced run climbs the
    // ladder. Its overload phases would also lengthen every untraced run
    // and swing the server's peak RSS.
    let mut ladder_steps: Vec<Step> = Vec::new();
    let best = tr.enabled().then(|| {
        goodput_rung(&rungs, |rate| {
            // Every rung replays one arrival pattern, scaled to its rate,
            // so rungs differ in rate alone.
            let step = load.step(rate, 3, STEP_REQUESTS);
            let meets = step.outcome().meets(SLO_MS);
            ladder_steps.push(step);
            meets
        })
    });
    saturate_parts.push(load.saturate(SATURATE_PART));
    light_parts.push(load.step(LIGHT_RPS, 12, LIGHT_PART));
    saturate_parts.push(load.saturate(SATURATE_PART));
    let traced_light = if tr.enabled() {
        // The first light part's schedule again, so the walls compare.
        Some(load.step(LIGHT_RPS, 10, LIGHT_PART))
    } else {
        None
    };
    let part_outcomes: Vec<StepOutcome> = light_parts.iter().map(Step::outcome).collect();
    let light_p50 = crate::stats::median(
        &part_outcomes
            .iter()
            .map(|o| o.latency.p50)
            .collect::<Vec<_>>(),
    );
    let light = Step {
        rate: LIGHT_RPS,
        outcomes: light_parts
            .iter_mut()
            .flat_map(|p| p.outcomes.drain(..))
            .collect(),
        wall: light_parts[0].wall,
    };
    report.set(
        "peak_rss_mb",
        peak_rss_mb(&setup.server.child.id().to_string())?,
    );
    let swaps_issued = load.swaps_issued;
    let end_counters = server_counters(load.addr)?;

    // Outcomes and checks over every step.
    let all_steps: Vec<&Step> = [&light, &heavy]
        .into_iter()
        .chain(&ladder_steps)
        .chain(&saturate_parts)
        .chain(traced_light.as_ref())
        .collect();
    for step in &all_steps {
        for o in step.outcomes.iter() {
            let is_match = matches!(o.item, Item::Match(_));
            if is_match {
                report.attempted += 1;
            }
            if o.status == 200 {
                continue;
            }
            if is_match {
                report.failed += 1;
            }
            report.check(
                o.status == 503 && o.retry_after,
                format!(
                    "non-200 response {} without 503 + Retry-After ({})",
                    o.status, o.body
                ),
            );
        }
    }
    report.check(
        end_counters.swaps as usize == swaps_issued,
        format!(
            "server counted {} swaps, {} issued",
            end_counters.swaps, swaps_issued
        ),
    );
    verify_sample(
        &all_steps,
        &setup.checkpoints,
        load.traffic,
        seed,
        &mut report,
    )?;

    let lo = light.outcome();
    let ho = heavy.outcome();
    if let Some(best) = best {
        report.check(best.is_some(), "no ladder rung meets the latency limit");
        report.set("serve.goodput_rps", best.map_or(0.0, |i| rungs[i]));
    }
    let saturated = saturate_parts.iter().map(|p| p.rate).fold(0.0, f64::max);
    report.set("throughput_per_s", saturated);
    report.set("p50_ms", light_p50);
    report.set("serve.light.p50_ms", light_p50);
    report.set("serve.light.p99_ms", lo.latency.tail.unwrap_or(f64::NAN));
    report.set("serve.heavy.p50_ms", ho.latency.p50);
    report.set("serve.heavy.p99_ms", ho.latency.tail.unwrap_or(f64::NAN));
    let named = part_outcomes.iter().map(|o| ("light part", o));
    for (name, o) in named.chain([("light", &lo), ("heavy", &ho)]) {
        println!(
            "# step {name}: rate {} sent {} ok {} shed {} failed {} p50 {:.3} ms p{} {:.3} ms (n={}) late p50 {:.3} ms backlog_grows {}",
            o.rate, o.sent, o.ok, o.shed, o.failed, o.latency.p50, o.latency.tail_pct.unwrap_or(0.0), o.latency.tail.unwrap_or(f64::NAN), o.latency.n, o.late.p50, o.backlog_grows
        );
    }
    for p in &saturate_parts {
        println!(
            "# saturate part: {} requests, {:.1} ok/s over {:.3} s",
            p.outcomes.len(),
            p.rate,
            p.wall
        );
    }
    for s in &ladder_steps {
        let o = s.outcome();
        println!(
            "# ladder rate {}: tail {:?} backlog_grows {} meets {}",
            o.rate,
            o.latency.tail,
            o.backlog_grows,
            o.meets(SLO_MS)
        );
    }
    report.set("serve.sent", (lo.sent + ho.sent) as f64);
    report.set("serve.ok", (lo.ok + ho.ok) as f64);
    report.set("serve.shed", (lo.shed + ho.shed) as f64);
    report.set("serve.failed", (lo.failed + ho.failed) as f64);
    let late: Vec<f64> = [&light, &heavy]
        .iter()
        .flat_map(|s| s.matches().map(|o| (o.sent - o.due).max(0.0) * 1e3))
        .collect();
    report.set(
        "serve.gen_late_p99_ms",
        summarize(&late).tail.unwrap_or(f64::NAN),
    );
    let d = |f: fn(&ServerCounters) -> f64| f(&after) - f(&before);
    let reqs = d(|c| c.requests).max(1.0);
    report.set(
        "http.server_mean_us",
        (after.latency_mean_us * after.requests - before.latency_mean_us * before.requests) / reqs,
    );
    report.set(
        "batcher.mean_fill",
        d(|c| c.jobs) / d(|c| c.batches).max(1.0),
    );
    report.set(
        "batcher.queue_wait_ms",
        d(|c| c.queue_wait_us) / d(|c| c.jobs).max(1.0) / 1e3,
    );
    report.set("batcher.batches", d(|c| c.batches));
    report.set("admission.shed_total", d(|c| c.shed_total));
    report.set("plane.swaps", d(|c| c.swaps));
    let lookups = d(|c| c.cache_hits) + d(|c| c.cache_misses);
    report.set(
        "plane.cache_hit_rate",
        d(|c| c.cache_hits) / lookups.max(1.0),
    );
    let swap_ms: Vec<f64> = [&light, &heavy]
        .iter()
        .flat_map(|s| {
            s.outcomes
                .iter()
                .filter(|o| matches!(o.item, Item::Swap(_)) && o.done.is_some())
        })
        .map(|o| (o.done.unwrap() - o.due) * 1e3)
        .collect();
    if !swap_ms.is_empty() {
        report.set("plane.swap_ms", summarize(&swap_ms).p50);
    }
    if let Some(traced) = &traced_light {
        // Client-side request spans of the traced light step, then the
        // in-process replay of the light and heavy traffic.
        for o in traced.matches() {
            if let Some(done) = o.done {
                let id = tr.fresh_id();
                tr.record(Span {
                    name: "serve.request",
                    id,
                    parent: 0,
                    group: id,
                    start: o.due,
                    end: done,
                });
            }
        }
        report.set("trace.overhead_s", traced.wall - light.wall);
        report.set(
            "trace.unattributed_share",
            crate::trace::uncovered_share(&tr.spans(), 0.0, traced.wall, &[]),
        );
        replay(&[&light, &heavy], load.traffic, tr, &mut report)?;
    }
    Ok(report)
}

/// Check a seeded sample of 200 ok `/match` responses bit for bit against
/// in-process `TaskPlane::score` under the checkpoint their generation
/// stamp names (even: A, the boot weights; odd: B).
fn verify_sample(
    steps: &[&Step],
    ckpts: &[PathBuf; 2],
    bodies: &[String],
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let ok: Vec<&Outcome> = steps
        .iter()
        .flat_map(|s| s.matches())
        .filter(|o| o.status == 200)
        .collect();
    if ok.is_empty() {
        report.check(false, "no ok responses to verify");
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xc4ec));
    let planes: Vec<TaskPlane> = ckpts
        .iter()
        .map(|ck| {
            let (model, name) =
                demo_model(TaskKind::EntityMatching, &demo_model_config(), SERVER_SEED);
            let plane = TaskPlane::new(Endpoint::Match, name, model);
            plane.swap(ck).map(|_| plane).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let pool = RotomPool::global();
    let mut mismatches = 0usize;
    for _ in 0..CHECKED_RESPONSES {
        let o = ok[rng.random_range(0..ok.len())];
        let Item::Match(i) = o.item else {
            unreachable!()
        };
        let doc = json::parse(&o.body)?;
        let generation = doc
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("no generation")?;
        let scores = json::parse_scores(doc.get("scores").ok_or("no scores")?)?;
        let want = planes[(generation % 2) as usize]
            .score(&body_inputs(&json::parse(&bodies[i])?)?, pool)
            .scores;
        let same = scores.len() == want.len()
            && scores
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .eq(want.iter().flatten().map(|v| v.to_bits()));
        mismatches += !same as usize;
    }
    report.check(
        mismatches == 0,
        format!(
            "{mismatches} of {CHECKED_RESPONSES} sampled responses differ from in-process scoring"
        ),
    );
    Ok(())
}

/// Traced in-process replay: every recorded request of `steps` through
/// `http::parse_request`, `json::parse`, `TaskPlane::score` and
/// `json::render_scores`, one span group per request.
fn replay(
    steps: &[&Step],
    bodies: &[String],
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (model, name) = demo_model(TaskKind::EntityMatching, &demo_model_config(), SERVER_SEED);
    let plane = TaskPlane::new(Endpoint::Match, name, model);
    let pool = RotomPool::global();
    let mut n = 0usize;
    for step in steps {
        for o in step.matches() {
            let Item::Match(i) = o.item else {
                unreachable!()
            };
            let group = tr.fresh_id();
            let raw = request_bytes("/match", &bodies[i]);
            let req = tr.span("http.parse", 0, group, |_| {
                rotom_serve::http::parse_request(&raw)
            });
            let req = match req {
                Ok(Some((req, _))) => req,
                _ => return Err("replayed request does not parse".into()),
            };
            let body = std::str::from_utf8(&req.body).map_err(|_| "replayed body not UTF-8")?;
            let doc = tr.span("json.parse", 0, group, |_| json::parse(body))?;
            let inputs = body_inputs(&doc)?;
            let scored = tr.span("plane.score", 0, group, |_| plane.score(&inputs, pool));
            let rendered = tr.span("json.render", 0, group, |_| {
                json::render_scores(&scored.scores)
            });
            std::hint::black_box(rendered);
            n += 1;
        }
    }
    let totals = crate::trace::total_times(&tr.spans());
    for (span, metric) in [
        ("http.parse", "http.parse_us"),
        ("json.parse", "json.parse_us"),
        ("plane.score", "plane.score_us"),
        ("json.render", "json.render_us"),
    ] {
        report.set(
            metric,
            totals.get(span).copied().unwrap_or(0.0) / n.max(1) as f64 * 1e6,
        );
    }
    Ok(())
}
