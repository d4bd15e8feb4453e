//! The shared skeleton of the gated bench bins (`trainbench`, `inferbench`,
//! `blockbench`, `servebench`), whose file writer `perfsmoke` uses too.
//!
//! A bench run measures one row per thread count, compares the rows with
//! the ones its `BENCH_*.json` file recorded, and rewrites the file. Rows
//! are flat JSON objects whose numbers keep their source text
//! ([`Json::Num`]), so a recorded baseline is rewritten byte for byte. A bin
//! keeps its workload, its row fields and its gate thresholds; this module
//! owns the rest:
//!
//! 1. [`child`] and [`sweep`]: `ROTOM_THREADS` is read once per process,
//!    so the parent re-executes itself once per thread count. Each child
//!    prints its row as the last line of its stdout and the parent reads it
//!    back with [`json::parse`].
//! 2. [`read`]: the previous file's `baseline` and `current` rows. A
//!    missing file means a first run. A file that does not parse, or a row
//!    that lacks a number the bin reads, is an error, never an empty
//!    section that would turn the gates off. [`Recorded::baseline_or`]
//!    keeps the recorded baseline or, on a first run, this run's rows.
//! 3. [`write`]: one top-level key per line, one array element per line.
//! 4. [`enforce`]: a bin's gate is a pure function of the previous
//!    `current` rows, the baseline and this run's rows that returns its
//!    failures; every failure is printed before the process exits 1.

pub use rotom_nn::json::{self, Json};
use std::fmt::Write as _;

/// The thread counts the re-executing bins measure.
pub const THREAD_COUNTS: [usize; 2] = [1, 8];

/// The rows a previous bench file recorded; both empty on a first run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorded {
    /// The first run's rows, the long-horizon reference.
    pub baseline: Vec<Json>,
    /// The previous run's rows, what `--check` compares this run against.
    pub current: Vec<Json>,
}

impl Recorded {
    /// The baseline to write: the recorded one, or `current` (this run)
    /// when there is none.
    pub fn baseline_or(&self, current: &[Json]) -> Vec<Json> {
        if self.baseline.is_empty() {
            println!("no existing baseline; recording this run as the baseline");
            current.to_vec()
        } else {
            self.baseline.clone()
        }
    }
}

/// Read the bench file at `path` (see [`parse`]). A missing file is a first
/// run; any other failure prints the reason and exits 1.
pub fn read(path: &str, gated: &[&str]) -> Recorded {
    let parsed = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text, gated),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Recorded::default(),
        Err(e) => Err(e.to_string()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1)
    })
}

/// Parse a bench file: its `baseline` and `current` sections must be
/// non-empty arrays of rows, and every row must carry `threads` and each
/// `gated` key as a number.
pub fn parse(text: &str, gated: &[&str]) -> Result<Recorded, String> {
    let doc = json::parse(text)?;
    let section = |name: &str| -> Result<Vec<Json>, String> {
        let rows = doc
            .get(name)
            .and_then(Json::as_arr)
            .filter(|rows| !rows.is_empty())
            .ok_or_else(|| format!("no {name:?} rows"))?;
        for row in rows {
            for key in ["threads"].iter().chain(gated) {
                if row.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("a {name:?} row lacks the number {key:?}: {row:#}"));
                }
            }
        }
        Ok(rows.to_vec())
    };
    Ok(Recorded {
        baseline: section("baseline")?,
        current: section("current")?,
    })
}

/// In a child copy of this binary (`child_env` set), print the row
/// `measure` returns and exit; otherwise return.
pub fn child(child_env: &str, measure: impl FnOnce() -> Json) {
    if std::env::var_os(child_env).is_some() {
        println!("{}", measure());
        std::process::exit(0);
    }
}

/// Measure one row per thread count in [`THREAD_COUNTS`], each in a child
/// copy of this binary run with `child_env`, `ROTOM_THREADS` and `env` set
/// (see [`child`]). The child's other stdout lines are echoed.
pub fn sweep(child_env: &str, env: &[(&str, String)]) -> Vec<Json> {
    let exe = std::env::current_exe().expect("current_exe");
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let out = std::process::Command::new(&exe)
                .env(child_env, "1")
                .env("ROTOM_THREADS", threads.to_string())
                .envs(env.iter().cloned())
                .output()
                .expect("spawn bench child");
            assert!(
                out.status.success(),
                "child (threads={threads}) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stdout = stdout.trim_end();
            let (echo, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
            if !echo.is_empty() {
                println!("{echo}");
            }
            json::parse(last)
                .unwrap_or_else(|e| panic!("child (threads={threads}) row {last:?}: {e}"))
        })
        .collect()
}

/// Write a bench file: one top-level key per line, one array element per
/// line.
pub fn write(path: &str, sections: &[(&str, Json)]) {
    std::fs::write(path, render(sections)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The text [`write`] writes.
pub fn render(sections: &[(&str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let _ = write!(out, "  {}: ", json::quote(key));
        match value {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    let _ = writeln!(out, "    {item:#}{sep}");
                }
                out.push_str("  ]");
            }
            other => {
                let _ = write!(out, "{other:#}");
            }
        }
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Print every gate failure, prefixed with the bin's name, then exit 1 if
/// there was any.
pub fn enforce(bin: &str, failures: Vec<String>) {
    for failure in &failures {
        eprintln!("{bin}: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// A row from its fields, in file order.
pub fn row<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `v` with `decimals` digits after the point (`null` when not finite).
pub fn fixed(v: f64, decimals: usize) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v:.decimals$}"))
    } else {
        Json::Null
    }
}

/// A row's number under `key`. Panics when it is absent: [`parse`] checks
/// the recorded rows, and a bin's own child writes the measured ones.
pub fn num(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("bench row lacks the number {key:?}: {row:#}"))
}

/// The row of `rows` at `row`'s thread count.
fn same_threads<'a>(rows: &'a [Json], row: &Json) -> Option<&'a Json> {
    rows.iter()
        .find(|r| num(r, "threads") == num(row, "threads"))
}

/// Pairs each row of `was` with the row of `now` at the same thread count.
pub fn by_threads<'a>(
    was: &'a [Json],
    now: &'a [Json],
) -> impl Iterator<Item = (&'a Json, &'a Json)> {
    was.iter()
        .filter_map(move |w| Some((w, same_threads(now, w)?)))
}

/// One failure per thread count at which `now`'s `key` fell below `ratio`
/// times `was`'s.
pub fn below(was: &[Json], now: &[Json], key: &str, ratio: f64, what: &str) -> Vec<String> {
    by_threads(was, now)
        .map(|(w, n)| (num(w, "threads"), num(w, key), num(n, key)))
        .filter(|&(_, w, n)| n < ratio * w)
        .map(|(t, w, n)| {
            format!(
                "{what} at {t} thread(s): {w:.2} -> {n:.2} (ratio {:.3} < {ratio})",
                n / w
            )
        })
        .collect()
}

/// One failure per row whose `key` is under `floor`.
pub fn at_least(rows: &[Json], key: &str, floor: f64, what: &str) -> Vec<String> {
    rows.iter()
        .filter(|r| num(r, key) < floor)
        .map(|r| {
            format!(
                "{what} at {} thread(s) is {} (< {floor})",
                num(r, "threads"),
                num(r, key)
            )
        })
        .collect()
}

/// One row per row of `current`: its `threads` plus the fields `f` derives
/// from it and the `baseline` row at the same thread count (itself when the
/// baseline has none).
pub fn vs_baseline(
    baseline: &[Json],
    current: &[Json],
    f: impl Fn(&Json, &Json) -> Vec<(&'static str, Json)>,
) -> Vec<Json> {
    current
        .iter()
        .map(|s| {
            let b = same_threads(baseline, s).unwrap_or(s);
            let mut fields = vec![("threads".to_string(), fixed(num(s, "threads"), 0))];
            fields.extend(f(s, b).into_iter().map(|(k, v)| (k.to_string(), v)));
            Json::Obj(fields)
        })
        .collect()
}

/// `rows` with `key` replaced by `f` of its value in every row. Gate tests
/// fake a regression or trip a floor with it.
pub fn map_key(rows: &[Json], key: &str, f: impl Fn(f64) -> f64) -> Vec<Json> {
    rows.iter()
        .map(|r| {
            let mut r = r.clone();
            if let Json::Obj(fields) = &mut r {
                for (_, v) in fields.iter_mut().filter(|(k, _)| k == key) {
                    if let Some(old) = v.as_f64() {
                        *v = Json::Num(f(old).to_string());
                    }
                }
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILES: [&str; 4] = [
        "BENCH_train.json",
        "BENCH_infer.json",
        "BENCH_serve.json",
        "BENCH_blocking.json",
    ];

    fn checked_in(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn checked_in_files_rewrite_byte_for_byte() {
        for name in FILES.iter().chain(&["BENCH_compute.json"]) {
            let text = checked_in(name);
            let Json::Obj(sections) = json::parse(&text).unwrap() else {
                panic!("{name} is not an object");
            };
            let sections: Vec<(&str, Json)> = sections
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            assert_eq!(render(&sections), text, "{name}");
        }
    }

    #[test]
    fn compact_and_pretty_files_read_the_same_rows() {
        for name in FILES {
            let text = checked_in(name);
            let rows = parse(&text, &[]).unwrap();
            assert!(
                !rows.baseline.is_empty() && !rows.current.is_empty(),
                "{name}"
            );
            let compact = json::parse(&text).unwrap().to_string();
            assert!(compact.contains("\"current\":["), "{name}");
            assert_eq!(parse(&compact, &[]).unwrap(), rows, "{name}");
        }
    }

    #[test]
    fn truncated_or_incomplete_files_are_errors() {
        for name in FILES {
            let text = checked_in(name);
            for cut in [1, text.len() / 3, text.len() / 2, text.len() - 3] {
                assert!(parse(&text[..cut], &[]).is_err(), "{name} cut at {cut}");
            }
        }
        let row = r#"{"threads": 1, "a": 2.0}"#;
        let file = format!(r#"{{"baseline": [{row}], "current": [{row}]}}"#);
        assert!(parse(&file, &["a"]).is_ok());
        assert!(parse(&file, &["a", "b"]).unwrap_err().contains("\"b\""));
        let no_threads = file.replace("\"threads\"", "\"t\"");
        assert!(parse(&no_threads, &[]).unwrap_err().contains("threads"));
        assert!(parse(r#"{"baseline": [], "current": []}"#, &[]).is_err());
        assert!(parse(r#"{"current": [{"threads": 1}]}"#, &[]).is_err());
    }

    #[test]
    fn missing_file_is_a_first_run() {
        let rows = read("no/such/BENCH_file.json", &["a"]);
        assert_eq!(rows, Recorded::default());
        let current = vec![row([("threads", fixed(1.0, 0))])];
        assert_eq!(rows.baseline_or(&current), current);
    }

    #[test]
    fn below_and_at_least_report_each_row() {
        let was = vec![
            row([("threads", fixed(1.0, 0)), ("x", fixed(100.0, 2))]),
            row([("threads", fixed(8.0, 0)), ("x", fixed(100.0, 2))]),
        ];
        let now = map_key(&was, "x", |v| v * 0.79);
        assert_eq!(below(&was, &was, "x", 0.8, "x").len(), 0);
        assert_eq!(below(&was, &now, "x", 0.8, "x").len(), 2);
        assert_eq!(below(&was, &now[..1], "x", 0.8, "x").len(), 1);
        assert_eq!(at_least(&now, "x", 79.0, "x").len(), 0);
        assert_eq!(at_least(&now, "x", 80.0, "x").len(), 2);
    }
}
