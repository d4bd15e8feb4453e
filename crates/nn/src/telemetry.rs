//! Structured runtime telemetry: a lock-cheap, off-by-default JSONL sink.
//!
//! Rotom's value is invisible at runtime without it: which augmentations
//! `M_F` kept, what weights `M_W` assigned, where a training step spends its
//! time. This module is the zero-dependency observability plane every crate
//! in the workspace emits into:
//!
//! * **Records** are line-delimited JSON objects, written and read through
//!   [`crate::json`] (the workspace carries no serde). Every record carries
//!   three required fields — `ts_step` (a process-global monotonic sequence
//!   number), `kind`, and `name` — plus arbitrary flat key/value fields.
//! * **Kinds** are a small closed vocabulary: `step` (one optimizer step of
//!   a target model), `meta` (one `M_F`/`M_W` decision batch), `aug` (one
//!   augmentation batch per operator), `pool` (one worker-pool dispatch),
//!   plus the generic `counter`, `gauge`, and `span`.
//! * **Spans** are RAII timers ([`span`]): the guard records its start on
//!   creation and emits one `span` record with `elapsed_us` and a
//!   per-thread `depth` on drop, so nested spans reconstruct a call tree
//!   from `(depth, ts_step)` alone.
//!
//! # Enabling
//!
//! Telemetry is **off by default** and enabled with the `ROTOM_TELEMETRY`
//! environment variable, read once at first use (like `ROTOM_THREADS`):
//! `ROTOM_TELEMETRY=stderr` streams records to stderr, any other non-empty
//! value is treated as a file path (created/truncated). Tests and tools can
//! instead install a writer programmatically with [`install_writer`].
//!
//! # Overhead contract
//!
//! Disabled, every instrumentation site reduces to one [`enabled`] check —
//! an initialized-`OnceLock` load — and **no** formatting, timing, locking,
//! or allocation happens; the trainbench regression gate holds with
//! telemetry off. Enabled, each record formats into a thread-local-free
//! `String` and takes one short mutex-guarded `write_all` (a single line
//! write, so concurrent emitters interleave at record granularity and the
//! JSONL stream stays parseable). Instrumentation never consumes RNG draws
//! and never mutates training state, so runs are bit-identical with
//! telemetry on or off.

use crate::json::{self, Json};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A telemetry field value: the flat scalar types a record may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, counts, sequence numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values serialize as JSON `null`.
    F64(f64),
    /// String (escaped on serialization).
    Str(String),
    /// Explicit null (what a non-finite float parses back as).
    Null,
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// The value as an `f64` when it is numeric (`U64`/`I64`/`F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice when it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed telemetry record (see [`parse_line`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Process-global monotonic sequence number.
    pub ts_step: u64,
    /// Record kind (`step`, `meta`, `aug`, `pool`, `counter`, `gauge`,
    /// `span`).
    pub kind: String,
    /// Record name (which instrumentation site emitted it).
    pub name: String,
    /// Remaining fields in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

struct Sink {
    writer: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
}

static SINK: OnceLock<Option<Sink>> = OnceLock::new();

fn sink() -> Option<&'static Sink> {
    SINK.get_or_init(init_from_env).as_ref()
}

fn init_from_env() -> Option<Sink> {
    let target = std::env::var("ROTOM_TELEMETRY").ok()?;
    let target = target.trim();
    if target.is_empty() {
        return None;
    }
    let writer: Box<dyn Write + Send> = if target == "stderr" {
        Box::new(std::io::stderr())
    } else {
        match std::fs::File::create(target) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!(
                    "rotom telemetry: cannot open ROTOM_TELEMETRY={target:?}: {e}; \
                     telemetry stays disabled"
                );
                return None;
            }
        }
    };
    Some(Sink {
        writer: Mutex::new(writer),
        seq: AtomicU64::new(0),
    })
}

/// Install a telemetry writer programmatically, bypassing the environment
/// (tests capture records through this). First initialization wins — returns
/// `false` when the sink was already initialized (from the environment or a
/// previous call), in which case the writer is dropped.
pub fn install_writer(writer: Box<dyn Write + Send>) -> bool {
    SINK.set(Some(Sink {
        writer: Mutex::new(writer),
        seq: AtomicU64::new(0),
    }))
    .is_ok()
}

/// Whether telemetry is enabled for this process. The first call reads
/// `ROTOM_TELEMETRY`; later calls are one initialized-`OnceLock` load. Every
/// instrumentation site guards on this so the disabled path does no work.
#[inline]
pub fn enabled() -> bool {
    sink().is_some()
}

/// Append one JSON field (`,"key":value`) to a line under construction.
fn push_field(line: &mut String, key: &str, value: &Value) {
    line.push(',');
    json::push_quoted(line, key);
    line.push(':');
    match value {
        Value::U64(v) => {
            let _ = write!(line, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(line, "{v}");
        }
        Value::F64(v) => json::push_f64(line, *v),
        Value::Null => line.push_str("null"),
        Value::Str(s) => json::push_quoted(line, s),
    }
}

/// Render one record to its JSONL form (no trailing newline). Exposed so the
/// schema tests and the report tool can round-trip records without a sink.
pub fn render_record(ts_step: u64, kind: &str, name: &str, fields: &[(&str, Value)]) -> String {
    let mut line = String::with_capacity(96 + 24 * fields.len());
    let _ = write!(line, "{{\"ts_step\":{ts_step}");
    push_field(&mut line, "kind", &Value::Str(kind.to_string()));
    push_field(&mut line, "name", &Value::Str(name.to_string()));
    for (k, v) in fields {
        push_field(&mut line, k, v);
    }
    line.push('}');
    line
}

/// Emit one record. No-op when telemetry is disabled.
pub fn emit(kind: &str, name: &str, fields: &[(&str, Value)]) {
    let Some(s) = sink() else { return };
    let ts = s.seq.fetch_add(1, Ordering::Relaxed);
    let mut line = render_record(ts, kind, name, fields);
    line.push('\n');
    // One write_all per record keeps lines atomic across threads.
    if let Ok(mut w) = s.writer.lock() {
        let _ = w.write_all(line.as_bytes());
    }
}

/// Emit a `counter` record (a named monotonic increment).
pub fn counter(name: &str, delta: u64) {
    emit("counter", name, &[("delta", Value::U64(delta))]);
}

/// Emit a `gauge` record (a named point-in-time value).
pub fn gauge(name: &str, value: f64) {
    emit("gauge", name, &[("value", Value::F64(value))]);
}

thread_local! {
    /// Per-thread span nesting depth (0 = outermost).
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII timer: emits one `span` record with `elapsed_us` and the thread's
/// nesting `depth` when dropped. Only constructed while telemetry is
/// enabled — [`span`] returns `None` otherwise, so the disabled path never
/// reads the clock.
pub struct Span {
    name: &'static str,
    start: Instant,
    depth: u32,
}

/// Start a span timer covering the guard's lifetime. `None` (no clock read,
/// no allocation) when telemetry is disabled.
pub fn span(name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let depth = SPAN_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Some(Span {
        name,
        start: Instant::now(),
        depth,
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        emit(
            "span",
            self.name,
            &[
                (
                    "elapsed_us",
                    Value::U64(self.start.elapsed().as_micros() as u64),
                ),
                ("depth", Value::U64(self.depth as u64)),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// JSONL parsing (for the report tool and schema tests)
// ---------------------------------------------------------------------------

/// Parse one JSONL telemetry line into a [`Record`], validating the schema:
/// a flat JSON object carrying `ts_step` (unsigned integer), `kind` and
/// `name` (non-empty strings) in any order, plus scalar fields only.
/// Numbers map to the narrowest [`Value`] that holds them, and
/// `true`/`false` read as 1/0.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let Json::Obj(object) = json::parse(line)? else {
        return Err("record must be a JSON object".to_string());
    };
    let mut fields = object
        .into_iter()
        .map(|(k, v)| Ok((k, scalar(v)?)))
        .collect::<Result<Vec<(String, Value)>, String>>()?;
    if fields.len() < 3 {
        return Err("record must carry ts_step, kind, name".to_string());
    }
    let take = |fields: &mut Vec<(String, Value)>, key: &str| -> Result<Value, String> {
        let i = fields
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("missing required field {key:?}"))?;
        Ok(fields.remove(i).1)
    };
    let ts_step = match take(&mut fields, "ts_step")? {
        Value::U64(v) => v,
        other => {
            return Err(format!(
                "ts_step must be an unsigned integer, got {other:?}"
            ))
        }
    };
    let kind = match take(&mut fields, "kind")? {
        Value::Str(s) if !s.is_empty() => s,
        other => return Err(format!("kind must be a non-empty string, got {other:?}")),
    };
    let name = match take(&mut fields, "name")? {
        Value::Str(s) if !s.is_empty() => s,
        other => return Err(format!("name must be a non-empty string, got {other:?}")),
    };
    Ok(Record {
        ts_step,
        kind,
        name,
        fields,
    })
}

/// A record field's [`Value`]: integers without a fraction or exponent as
/// `U64`/`I64`, every other number as `F64`.
fn scalar(value: Json) -> Result<Value, String> {
    Ok(match value {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::U64(b as u64),
        Json::Str(s) => Value::Str(s),
        Json::Num(raw) => {
            let integral = !raw.contains(['.', 'e', 'E']);
            match (raw.parse::<u64>(), raw.parse::<i64>()) {
                (Ok(v), _) if integral => Value::U64(v),
                (_, Ok(v)) if integral => Value::I64(v),
                _ => Value::F64(
                    raw.parse()
                        .map_err(|e| format!("bad number {raw:?}: {e}"))?,
                ),
            }
        }
        Json::Arr(_) | Json::Obj(_) => return Err("record fields must be scalars".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_carries_required_fields_in_order() {
        let line = render_record(7, "step", "train.step", &[("loss", Value::F64(0.5))]);
        assert!(line.starts_with("{\"ts_step\":7,\"kind\":\"step\",\"name\":\"train.step\""));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn roundtrip_all_value_types() {
        let fields: Vec<(&str, Value)> = vec![
            ("u", Value::U64(18_446_744_073_709_551_615)),
            ("i", Value::I64(-42)),
            ("f", Value::F64(1.5)),
            ("zero", Value::F64(0.0)),
            (
                "s",
                Value::Str("a \"quoted\"\nline\twith \\ and ✓".to_string()),
            ),
            ("nan", Value::F64(f64::NAN)),
            ("inf", Value::F64(f64::INFINITY)),
            ("null", Value::Null),
        ];
        let line = render_record(3, "gauge", "test", &fields);
        let rec = parse_line(&line).unwrap();
        assert_eq!(rec.ts_step, 3);
        assert_eq!(rec.kind, "gauge");
        assert_eq!(rec.name, "test");
        assert_eq!(rec.field("u"), Some(&Value::U64(u64::MAX)));
        assert_eq!(rec.field("i"), Some(&Value::I64(-42)));
        assert_eq!(rec.field("f"), Some(&Value::F64(1.5)));
        assert_eq!(rec.field("zero"), Some(&Value::F64(0.0)));
        assert_eq!(
            rec.field("s").and_then(|v| v.as_str()),
            Some("a \"quoted\"\nline\twith \\ and ✓")
        );
        // Non-finite floats serialize (and parse back) as null.
        assert_eq!(rec.field("nan"), Some(&Value::Null));
        assert_eq!(rec.field("inf"), Some(&Value::Null));
        assert_eq!(rec.field("null"), Some(&Value::Null));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"ts_step\":1}").is_err());
        assert!(parse_line("{\"kind\":\"x\",\"name\":\"y\",\"ts_step\":\"one\"}").is_err());
        assert!(parse_line("{\"ts_step\":1,\"kind\":\"\",\"name\":\"y\"}").is_err());
        assert!(parse_line("{\"ts_step\":1,\"kind\":\"a\",\"name\":\"b\"} extra").is_err());
        assert!(parse_line("{\"ts_step\":1,\"kind\":\"a\",\"name\":\"b\",}").is_err());
    }

    #[test]
    fn parse_accepts_required_fields_in_any_order() {
        let rec = parse_line("{\"name\":\"n\",\"ts_step\":5,\"extra\":2,\"kind\":\"k\"}").unwrap();
        assert_eq!(rec.ts_step, 5);
        assert_eq!(rec.kind, "k");
        assert_eq!(rec.name, "n");
        assert_eq!(rec.fields, vec![("extra".to_string(), Value::U64(2))]);
    }

    #[test]
    fn numbers_parse_to_narrowest_type() {
        let rec = parse_line(
            "{\"ts_step\":0,\"kind\":\"k\",\"name\":\"n\",\
             \"a\":3,\"b\":-3,\"c\":3.5,\"d\":1e3,\"e\":true,\"g\":false}",
        )
        .unwrap();
        assert_eq!(rec.field("a"), Some(&Value::U64(3)));
        assert_eq!(rec.field("b"), Some(&Value::I64(-3)));
        assert_eq!(rec.field("c"), Some(&Value::F64(3.5)));
        assert_eq!(rec.field("d"), Some(&Value::F64(1000.0)));
        assert_eq!(rec.field("e"), Some(&Value::U64(1)));
        assert_eq!(rec.field("g"), Some(&Value::U64(0)));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(1.5f32), Value::F64(1.5));
        assert_eq!(Value::U64(4).as_f64(), Some(4.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}
