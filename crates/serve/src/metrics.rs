//! Serving metrics: lock-free counters plus a log2-bucketed latency
//! histogram, rendered as the `/metrics` JSON document and mirrored into
//! the telemetry plane (`serve` records) when `ROTOM_TELEMETRY` is on.
//!
//! Everything is `AtomicU64` with relaxed ordering — the metrics are
//! monotone counters read for observability, not for synchronization, and
//! request handlers must never contend on a metrics lock.

use rotom_nn::telemetry::{self, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// One plane's state for `/metrics`: `(endpoint_name, quant_tier_label,
/// Option<(hits, misses, evictions, entries)>)` of its score cache.
pub type PlaneStats<'a> = (&'a str, &'a str, Option<(u64, u64, u64, usize)>);

/// Number of log2 latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended
/// (≥ ~34 s — nothing a request should ever see).
const LATENCY_BUCKETS: usize = 26;

/// A log2-bucketed latency histogram over microseconds.
///
/// Quantiles reported from it are upper bucket bounds, so a reported p99
/// is conservative (never smaller than the true p99) and at worst 2× it —
/// the right trade for a histogram that costs one relaxed `fetch_add` per
/// sample and needs no locks or allocation.
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (63 - (us | 1).leading_zeros()) as usize;
        let idx = idx.min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Upper-bound estimate of quantile `q` (0 < q ≤ 1) in microseconds:
    /// the upper edge of the bucket holding the q-th sample. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

/// Counters for one scoring endpoint.
#[derive(Default)]
pub struct EndpointMetrics {
    /// Requests routed to the endpoint.
    pub requests: AtomicU64,
    /// Individual inputs scored (a batch of 8 counts 8).
    pub inputs: AtomicU64,
    /// End-to-end request latency (parse → response bytes queued).
    pub latency: LatencyHistogram,
}

/// Process-wide serving metrics, shared by every connection handler and the
/// batcher.
#[derive(Default)]
pub struct ServeMetrics {
    /// Per-endpoint request counters, indexed by `Endpoint` route order.
    pub endpoints: [EndpointMetrics; 3],
    /// Responses by status class.
    pub status_2xx: AtomicU64,
    pub status_4xx: AtomicU64,
    pub status_5xx: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests rejected by the HTTP parser (subset of 4xx/5xx).
    pub parse_errors: AtomicU64,
    /// Batches the batcher dispatched to `score_batch`.
    pub batches: AtomicU64,
    /// Jobs that rode those batches (batched_jobs / batches = mean fill).
    pub batched_jobs: AtomicU64,
    /// Total time jobs spent queued before their batch was dispatched.
    pub queue_wait_us: AtomicU64,
    /// Successful hot swaps across all planes.
    pub swaps: AtomicU64,
    /// Jobs currently queued in the batcher (gauge, stored not added).
    pub queue_depth: AtomicU64,
    /// Requests shed with 503 + Retry-After: queue full, predicted wait
    /// over deadline, deadline expired in queue, draining/shutdown, or the
    /// connection cap.
    pub shed_total: AtomicU64,
    /// Times the watchdog respawned a dead or wedged batcher thread.
    pub batcher_respawns: AtomicU64,
    /// Drains that hit their deadline with jobs still queued (those jobs
    /// were failed, not completed).
    pub drain_deadline_exceeded: AtomicU64,
    /// Connections refused at accept because `--max-conns` was reached.
    pub conns_rejected: AtomicU64,
    /// Transient accept-loop errors survived via backoff.
    pub accept_errors: AtomicU64,
}

impl ServeMetrics {
    /// Count a response status.
    pub fn record_status(&self, status: u16) {
        let ctr = match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the `/metrics` JSON document from each plane's
    /// [`PlaneStats`].
    pub fn render_json(&self, planes: &[PlaneStats]) -> String {
        use rotom_nn::kernels::profile;
        let mut out = String::with_capacity(1024);
        out.push_str("{\"endpoints\":{");
        for (i, (name, quant, cache)) in planes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let m = &self.endpoints[i];
            out.push_str(&format!(
                "\"{}\":{{\"requests\":{},\"inputs\":{},\"quant\":\"{}\",\"latency_us\":{{\"mean\":{},\"p50\":{},\"p99\":{}}}",
                name,
                m.requests.load(Ordering::Relaxed),
                m.inputs.load(Ordering::Relaxed),
                quant,
                m.latency.mean_us(),
                m.latency.quantile_us(0.5),
                m.latency.quantile_us(0.99),
            ));
            match cache {
                Some((hits, misses, evictions, entries)) => out.push_str(&format!(
                    ",\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\"entries\":{entries}}}}}"
                )),
                None => out.push_str(",\"cache\":null}"),
            }
        }
        out.push_str(&format!(
            "}},\"status\":{{\"2xx\":{},\"4xx\":{},\"5xx\":{}}},\"connections\":{},\"conns_rejected\":{},\"accept_errors\":{},\"parse_errors\":{},\"batcher\":{{\"batches\":{},\"jobs\":{},\"queue_wait_us\":{},\"queue_depth\":{},\"shed_total\":{},\"batcher_respawns\":{},\"drain_deadline_exceeded\":{}}},\"swaps\":{},\"gemm\":{{\"quant_i8_calls\":{},\"fma\":{},\"quant_simd\":{}}}}}",
            self.status_2xx.load(Ordering::Relaxed),
            self.status_4xx.load(Ordering::Relaxed),
            self.status_5xx.load(Ordering::Relaxed),
            self.connections.load(Ordering::Relaxed),
            self.conns_rejected.load(Ordering::Relaxed),
            self.accept_errors.load(Ordering::Relaxed),
            self.parse_errors.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.batched_jobs.load(Ordering::Relaxed),
            self.queue_wait_us.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            self.shed_total.load(Ordering::Relaxed),
            self.batcher_respawns.load(Ordering::Relaxed),
            self.drain_deadline_exceeded.load(Ordering::Relaxed),
            self.swaps.load(Ordering::Relaxed),
            profile::quant_i8_count(),
            profile::fma_active(),
            profile::quant_simd_active(),
        ));
        out
    }

    /// Mirror the headline counters into the telemetry plane as one `serve`
    /// record. No-op when telemetry is disabled.
    pub fn emit_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let requests: u64 = self
            .endpoints
            .iter()
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum();
        telemetry::emit(
            "serve",
            "serve.requests",
            &[
                ("requests", Value::U64(requests)),
                (
                    "status_2xx",
                    Value::U64(self.status_2xx.load(Ordering::Relaxed)),
                ),
                (
                    "status_4xx",
                    Value::U64(self.status_4xx.load(Ordering::Relaxed)),
                ),
                (
                    "status_5xx",
                    Value::U64(self.status_5xx.load(Ordering::Relaxed)),
                ),
                ("batches", Value::U64(self.batches.load(Ordering::Relaxed))),
                (
                    "batched_jobs",
                    Value::U64(self.batched_jobs.load(Ordering::Relaxed)),
                ),
                (
                    "shed_total",
                    Value::U64(self.shed_total.load(Ordering::Relaxed)),
                ),
                (
                    "batcher_respawns",
                    Value::U64(self.batcher_respawns.load(Ordering::Relaxed)),
                ),
                ("swaps", Value::U64(self.swaps.load(Ordering::Relaxed))),
                (
                    "quant_i8_calls",
                    Value::U64(rotom_nn::kernels::profile::quant_i8_count()),
                ),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::default();
        for us in [3u64, 5, 9, 17, 33, 65, 129, 257, 513, 1025] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        // The 5th sample (33µs) lives in [32,64) → reported bound 64.
        assert_eq!(p50, 64);
        // The 10th sample (1025µs) lives in [1024,2048) → bound 2048.
        assert_eq!(p99, 2048);
        assert!(p50 <= p99);
        assert!(h.mean_us() >= 3 && h.mean_us() <= 1025);
    }

    #[test]
    fn histogram_handles_zero_and_huge_samples() {
        let h = LatencyHistogram::default();
        h.record_us(0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(1.0) >= h.quantile_us(0.01));
    }

    #[test]
    fn metrics_render_is_valid_json() {
        let m = ServeMetrics::default();
        m.endpoints[0].requests.fetch_add(2, Ordering::Relaxed);
        m.record_status(200);
        m.record_status(404);
        m.record_status(500);
        let doc = m.render_json(&[
            ("match", "i8", Some((1, 2, 3, 4))),
            ("clean", "f32", None),
            ("classify", "f32", None),
        ]);
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            parsed
                .get("endpoints")
                .and_then(|e| e.get("match"))
                .and_then(|m| m.get("requests"))
                .and_then(|r| r.as_u64()),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("endpoints")
                .and_then(|e| e.get("match"))
                .and_then(|m| m.get("cache"))
                .and_then(|c| c.get("evictions"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("status")
                .and_then(|s| s.get("4xx"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("endpoints")
                .and_then(|e| e.get("match"))
                .and_then(|m| m.get("quant"))
                .and_then(|q| q.as_str()),
            Some("i8")
        );
        assert!(
            parsed
                .get("gemm")
                .and_then(|g| g.get("quant_i8_calls"))
                .and_then(|v| v.as_u64())
                .is_some(),
            "gemm dispatch-tier counters present"
        );
    }

    #[test]
    fn metrics_render_carries_robustness_counters() {
        let m = ServeMetrics::default();
        m.queue_depth.store(5, Ordering::Relaxed);
        m.shed_total.fetch_add(3, Ordering::Relaxed);
        m.batcher_respawns.fetch_add(1, Ordering::Relaxed);
        m.drain_deadline_exceeded.fetch_add(2, Ordering::Relaxed);
        m.conns_rejected.fetch_add(4, Ordering::Relaxed);
        let doc = m.render_json(&[
            ("match", "f32", None),
            ("clean", "f32", None),
            ("classify", "f32", None),
        ]);
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        let batcher = parsed.get("batcher").expect("batcher section");
        for (key, want) in [
            ("queue_depth", 5),
            ("shed_total", 3),
            ("batcher_respawns", 1),
            ("drain_deadline_exceeded", 2),
        ] {
            assert_eq!(
                batcher.get(key).and_then(|v| v.as_u64()),
                Some(want),
                "batcher.{key}"
            );
        }
        assert_eq!(
            parsed.get("conns_rejected").and_then(|v| v.as_u64()),
            Some(4)
        );
    }
}
