//! The benchmark's own statistics: the tail-percentile rule, open-loop
//! due-time latency, backlog-growth detection and goodput-ladder selection.

/// Percentiles the tail rule may report, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples (`q` in percent).
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples (the tolerance
/// keeps float error in `q * n` from bumping an exact rank up by one).
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median and tail of one sample set, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_BEYOND`] samples beyond it, or `None` when even the median
    /// has fewer.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct`.
    pub tail: Option<f64>,
}

/// Summarize samples by the tail rule. Infinite samples (failed requests,
/// which miss every latency limit) sort last and count as samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail_pct: None,
            tail: None,
        };
    }
    let tail_pct = TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&q| n.saturating_sub(rank(q, n)) >= TAIL_BEYOND);
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: tail_pct.map(|q| percentile(&sorted, q)),
    }
}

/// Median of arbitrary samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One open-loop request as the load generator saw it. Times are seconds
/// from the start of the step's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the schedule said to send the request.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When its response was complete, `None` if it never completed.
    pub done: Option<f64>,
    /// Whether the response was a 200.
    pub ok: bool,
}

impl Arrival {
    /// Latency timed from the due time, in milliseconds: a stall that
    /// delays sending charges its wait to every request due behind it.
    /// Failed or unanswered requests are infinitely late.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(done)) => (done - self.due).max(0.0) * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Seeded Poisson arrival times (seconds) at `rate` per second over
/// `count` requests, from the benchmark's own splitmix64 stream.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u = (rotom_rng::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Outcome of one rate step of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// 200 responses.
    pub ok: usize,
    /// 503 responses (shed by admission control).
    pub shed: usize,
    /// Other failures: errors, unexpected statuses, no response.
    pub failed: usize,
    /// Due-time latency summary over every request (misses infinite).
    pub latency: Summary,
    /// Generator lateness summary.
    pub late: Summary,
    /// Whether the backlog grew over the step.
    pub backlog_grows: bool,
}

impl StepOutcome {
    /// Summarize arrivals of a step offered at `rate`. `shed` counts the
    /// 503s among the non-ok arrivals.
    pub fn from_arrivals(rate: f64, arrivals: &[Arrival], shed: usize, slo_ms: f64) -> Self {
        let lat: Vec<f64> = arrivals.iter().map(Arrival::latency_ms).collect();
        let late: Vec<f64> = arrivals.iter().map(Arrival::lateness_ms).collect();
        let ok = arrivals.iter().filter(|a| a.ok).count();
        Self {
            rate,
            sent: arrivals.len(),
            ok,
            shed,
            failed: arrivals.len() - ok - shed,
            latency: summarize(&lat),
            late: summarize(&late),
            backlog_grows: backlog_grows(arrivals, slo_ms),
        }
    }

    /// Whether the step meets the latency limit: its tail (failures count
    /// as misses) is within `slo_ms` and the backlog did not grow.
    pub fn meets(&self, slo_ms: f64) -> bool {
        matches!(self.latency.tail, Some(t) if t <= slo_ms) && !self.backlog_grows
    }
}

/// Backlog growth: in a stable open loop latency is stationary; in an
/// overloaded one the queue, and with it latency, climbs for the whole
/// step. The backlog counts as growing when the median latency of the last
/// quarter of requests (by due time) exceeds the first quarter's by more
/// than half the latency limit, or when any request never completed.
pub fn backlog_grows(arrivals: &[Arrival], slo_ms: f64) -> bool {
    if arrivals.iter().any(|a| a.done.is_none()) {
        return true;
    }
    let mut by_due: Vec<&Arrival> = arrivals.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let q = by_due.len() / 4;
    if q == 0 {
        return false;
    }
    let med = |xs: &[&Arrival]| median(&xs.iter().map(|a| a.latency_ms()).collect::<Vec<_>>());
    let first = med(&by_due[..q]);
    let last = med(&by_due[by_due.len() - q..]);
    last > first + slo_ms / 2.0
}

/// A fixed ladder of rates from `lo` to at least `hi`, each rung `step`
/// (e.g. 0.05) above the last.
pub fn ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut rungs = vec![lo];
    while *rungs.last().unwrap() < hi {
        let next = rungs.last().unwrap() * (1.0 + step);
        rungs.push(next.round());
    }
    rungs
}

/// Goodput: the highest rung at which `probe` meets the limit, found by
/// bisection (latency rises monotonically with offered rate). Returns the
/// rung index, or `None` when even the lowest rung misses. `probe` sees
/// each rung at most once.
pub fn goodput_rung(rungs: &[f64], mut probe: impl FnMut(f64) -> bool) -> Option<usize> {
    let (mut lo, mut hi) = (0usize, rungs.len()); // answer in [lo-1, hi)
    let mut best = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if probe(rungs[mid]) {
            best = Some(mid);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.tail_pct, Some(99.0));
        assert_eq!(sum.tail, Some(990.0));

        // 999 samples: p99 has rank 990, only 9 beyond -> p95.
        let sum = summarize(&s[..999]);
        assert_eq!(sum.tail_pct, Some(95.0));

        // 10 000 samples reach p99.9 (rank 9990, 10 beyond).
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&big).tail_pct, Some(99.9));

        // 15 samples: p50 rank 8 leaves 7 beyond, so no tail at all.
        let sum = summarize(&s[..15]);
        assert_eq!(sum.tail_pct, None);
        assert_eq!(sum.p50, 8.0);
        // 20 samples: p50 rank 10 leaves exactly 10.
        assert_eq!(summarize(&s[..20]).tail_pct, Some(50.0));
    }

    #[test]
    fn failures_sort_last_and_poison_the_tail() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        for v in s.iter_mut().rev().take(11) {
            *v = f64::INFINITY;
        }
        assert_eq!(summarize(&s).tail, Some(f64::INFINITY));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let a = Arrival {
            due: 1.0,
            sent: 1.004,
            done: Some(1.010),
            ok: true,
        };
        assert!((a.latency_ms() - 10.0).abs() < 1e-9);
        assert!((a.lateness_ms() - 4.0).abs() < 1e-9);
        let failed = Arrival { ok: false, ..a };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
        let lost = Arrival { done: None, ..a };
        assert_eq!(lost.latency_ms(), f64::INFINITY);
        let early = Arrival {
            sent: 0.9,
            done: Some(0.95),
            ..a
        };
        assert_eq!(early.lateness_ms(), 0.0);
        assert_eq!(early.latency_ms(), 0.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(500.0, 5000, 42);
        assert_eq!(a, poisson_schedule(500.0, 5000, 42));
        assert_ne!(a, poisson_schedule(500.0, 5000, 43));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = 5000.0 / a[4999];
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
    }

    fn step(latencies_ms: &[f64]) -> Vec<Arrival> {
        latencies_ms
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let due = i as f64 * 0.001;
                Arrival {
                    due,
                    sent: due,
                    done: Some(due + l / 1e3),
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn backlog_growth_is_detected_and_flat_load_is_not() {
        let flat: Vec<f64> = (0..1200).map(|i| 3.0 + (i % 7) as f64).collect();
        assert!(!backlog_grows(&step(&flat), 25.0));
        let climbing: Vec<f64> = (0..1200).map(|i| 3.0 + i as f64 * 0.05).collect();
        assert!(backlog_grows(&step(&climbing), 25.0));
        let mut lost = step(&flat);
        lost[10].done = None;
        assert!(backlog_grows(&lost, 25.0));

        let out = StepOutcome::from_arrivals(100.0, &step(&flat), 0, 25.0);
        assert!(out.meets(25.0));
        let out = StepOutcome::from_arrivals(100.0, &step(&climbing), 0, 25.0);
        assert!(!out.meets(25.0));
        // A flat but slow step misses on the tail alone.
        let slow: Vec<f64> = vec![30.0; 1200];
        let out = StepOutcome::from_arrivals(100.0, &step(&slow), 0, 25.0);
        assert!(!out.backlog_grows && !out.meets(25.0));
    }

    #[test]
    fn shed_requests_count_as_misses() {
        let mut arr = step(&vec![2.0; 1000]);
        for a in arr.iter_mut().take(20) {
            a.ok = false;
        }
        let out = StepOutcome::from_arrivals(100.0, &arr, 20, 25.0);
        assert_eq!((out.sent, out.ok, out.shed, out.failed), (1000, 980, 20, 0));
        assert!(!out.meets(25.0));
    }

    #[test]
    fn ladder_rungs_are_at_most_a_tenth_apart() {
        let r = ladder(200.0, 900.0, 0.05);
        assert_eq!(r[0], 200.0);
        assert!(*r.last().unwrap() >= 900.0);
        assert!(r.windows(2).all(|w| w[1] > w[0] && w[1] / w[0] <= 1.1));
    }

    #[test]
    fn goodput_bisects_to_the_highest_passing_rung() {
        let rungs = ladder(100.0, 1000.0, 0.05);
        for capacity in [50.0, 100.0, 333.0, 640.0, 5000.0] {
            let mut probes = Vec::new();
            let got = goodput_rung(&rungs, |r| {
                probes.push(r);
                r <= capacity
            });
            let want = rungs.iter().rposition(|&r| r <= capacity);
            assert_eq!(got, want, "capacity {capacity}");
            let mut uniq = probes.clone();
            uniq.dedup();
            assert_eq!(uniq.len(), probes.len());
            assert!(probes.len() <= 6, "{} probes", probes.len());
        }
        // The probe is the real step check: a backlog-growing rung fails.
        let got = goodput_rung(&rungs, |r| {
            let lat: Vec<f64> = (0..1000)
                .map(|i| if r > 400.0 { 2.0 + i as f64 * 0.1 } else { 2.0 })
                .collect();
            StepOutcome::from_arrivals(r, &step(&lat), 0, 25.0).meets(25.0)
        });
        assert_eq!(
            got.map(|i| rungs[i]),
            rungs.iter().rev().find(|&&r| r <= 400.0).copied()
        );
    }
}
