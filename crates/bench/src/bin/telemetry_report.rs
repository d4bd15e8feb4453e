//! Summarize a `ROTOM_TELEMETRY` JSONL capture into human-readable tables.
//!
//! ```text
//! telemetry_report <run.jsonl>                    # summary tables
//! telemetry_report <run.jsonl> --check            # schema/sanity gate (CI)
//! telemetry_report <run.jsonl> --check --require step,meta,aug,pool
//! ```
//!
//! `--check` exits nonzero unless the capture is non-empty, every line
//! parses against the record schema (`ts_step` + `kind` + `name`), and
//! every `keep_rate` field lies in `[0, 1]`. `--require` additionally
//! demands that each named record kind appears at least once — the CI smoke
//! uses it to prove a training run exercised the step, meta-decision,
//! augmentation, and pool instrumentation.
//!
//! When the capture holds `meta.decision` records, a second table totals
//! their per-phase durations (the `*_ms` fields: candidate scoring, `M_W`
//! forward, target step, validation step, finite-difference probes, `M_W`
//! update) over the run, with each phase's share.

use rotom::telemetry::{parse_line, Record};
use rotom_bench::print_table;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Running aggregate for one `(kind, name)` stream.
#[derive(Default)]
struct Agg {
    count: u64,
    /// Sum/min/max per numeric field key, in first-seen order.
    fields: Vec<(String, f64, f64, f64)>,
}

impl Agg {
    fn add(&mut self, rec: &Record) {
        self.count += 1;
        for (k, v) in &rec.fields {
            let Some(x) = v.as_f64() else { continue };
            match self.fields.iter_mut().find(|(fk, ..)| fk == k) {
                Some((_, sum, min, max)) => {
                    *sum += x;
                    *min = min.min(x);
                    *max = max.max(x);
                }
                None => self.fields.push((k.clone(), x, x, x)),
            }
        }
    }
}

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Per-phase totals of the meta step, from the `*_ms` fields of the
/// `meta.decision` stream.
fn print_meta_phases(aggs: &BTreeMap<(String, String), Agg>) {
    let Some(agg) = aggs.get(&("meta".to_string(), "meta.decision".to_string())) else {
        return;
    };
    let phases: Vec<(&str, f64)> = agg
        .fields
        .iter()
        .filter_map(|(k, sum, ..)| k.strip_suffix("_ms").map(|p| (p, *sum)))
        .collect();
    let total: f64 = phases.iter().map(|(_, ms)| ms).sum();
    if phases.is_empty() || total <= 0.0 {
        return;
    }
    let header: Vec<String> = ["phase", "total_ms", "share"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(p, ms)| {
            vec![
                p.to_string(),
                format!("{ms:.1}"),
                format!("{:.1}%", 100.0 * ms / total),
            ]
        })
        .collect();
    rows.push(vec!["total".into(), format!("{total:.1}"), "100.0%".into()]);
    print_table(
        &format!("meta-step phases over {} steps", agg.count),
        &header,
        &rows,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut check = false;
    let mut require: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--require" => {
                let Some(kinds) = it.next() else {
                    eprintln!("--require needs a comma-separated kind list");
                    return ExitCode::FAILURE;
                };
                require.extend(kinds.split(',').map(|s| s.trim().to_string()));
            }
            "--help" | "-h" => {
                eprintln!("usage: telemetry_report <run.jsonl> [--check] [--require k1,k2,..]");
                return ExitCode::SUCCESS;
            }
            _ if path.is_none() => path = Some(a),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: telemetry_report <run.jsonl> [--check] [--require k1,k2,..]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("telemetry_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut records: Vec<Record> = Vec::new();
    let mut parse_errors = 0usize;
    let mut keep_rate_violations = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => {
                for (k, v) in &rec.fields {
                    if k == "keep_rate" {
                        match v.as_f64() {
                            Some(r) if (0.0..=1.0).contains(&r) => {}
                            _ => {
                                eprintln!("line {}: keep_rate {v:?} outside [0, 1]", lineno + 1);
                                keep_rate_violations += 1;
                            }
                        }
                    }
                }
                records.push(rec);
            }
            Err(e) => {
                eprintln!("line {}: {e}", lineno + 1);
                parse_errors += 1;
            }
        }
    }

    // Aggregate per (kind, name), keyed so kinds group together.
    let mut aggs: BTreeMap<(String, String), Agg> = BTreeMap::new();
    for rec in &records {
        aggs.entry((rec.kind.clone(), rec.name.clone()))
            .or_default()
            .add(rec);
    }

    let header: Vec<String> = ["kind", "name", "count", "field", "mean", "min", "max"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for ((kind, name), agg) in &aggs {
        if agg.fields.is_empty() {
            rows.push(vec![
                kind.clone(),
                name.clone(),
                agg.count.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        for (i, (field, sum, min, max)) in agg.fields.iter().enumerate() {
            rows.push(vec![
                if i == 0 { kind.clone() } else { String::new() },
                if i == 0 { name.clone() } else { String::new() },
                if i == 0 {
                    agg.count.to_string()
                } else {
                    String::new()
                },
                field.clone(),
                fmt(sum / agg.count as f64),
                fmt(*min),
                fmt(*max),
            ]);
        }
    }
    print_table(&format!("telemetry: {path}"), &header, &rows);
    print_meta_phases(&aggs);
    println!(
        "\n{} records, {} streams, {} parse errors",
        records.len(),
        aggs.len(),
        parse_errors
    );

    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failed = false;
    if records.is_empty() {
        eprintln!("CHECK FAIL: no telemetry records in {path}");
        failed = true;
    }
    if parse_errors > 0 {
        eprintln!("CHECK FAIL: {parse_errors} line(s) failed schema validation");
        failed = true;
    }
    if keep_rate_violations > 0 {
        eprintln!("CHECK FAIL: {keep_rate_violations} keep_rate value(s) outside [0, 1]");
        failed = true;
    }
    for kind in &require {
        if !aggs.keys().any(|(k, _)| k == kind) {
            eprintln!("CHECK FAIL: no records of required kind {kind:?}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("CHECK OK: schema-valid, {} records", records.len());
        ExitCode::SUCCESS
    }
}
