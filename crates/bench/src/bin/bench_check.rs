//! `bench-check` — the CI regression gate over the committed bench
//! baseline `BENCH_ranking.json`.
//!
//! Compares a freshly generated bench summary against the committed
//! baseline and fails (exit 1) when a tracked metric regressed beyond the
//! tolerance. Only *ratio* metrics are compared — batched-vs-scalar
//! speedup, dedup ratio — because absolute wall-clock numbers are
//! machine-dependent while within-run ratios are comparable between the
//! committed baseline's machine and the CI runner.
//!
//! ```text
//! bench-check --baseline BENCH_ranking.json --fresh target/BENCH_ranking.json
//!             [--tolerance 0.15] [--self-test-slowdown 1.2]
//! ```
//!
//! `--self-test-slowdown F` divides every fresh speedup by `F` before
//! comparing. CI compares the baseline with itself under `F = 1.2`: every
//! speedup ratio is then exactly 1/1.2 = 0.833, below the 0.85 floor, so
//! the gate must fail, which proves it can before its green result is
//! trusted.

use serde_json::Value;
use std::process::ExitCode;

/// One tracked metric with its comparison policy.
struct Metric {
    name: String,
    baseline: f64,
    fresh: Option<f64>,
    /// `true`: only a drop is a regression (speedups — faster is fine).
    /// `false`: any drift beyond tolerance fails (deterministic ratios).
    lower_only: bool,
    /// `true` for ratios a self-test slowdown should scale.
    is_speedup: bool,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench-check: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut tolerance = 0.15f64;
    let mut slowdown = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs an argument"))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = Some(value("--baseline")?),
            "--fresh" => fresh_path = Some(value("--fresh")?),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--self-test-slowdown" => {
                slowdown = value("--self-test-slowdown")?
                    .parse()
                    .map_err(|e| format!("--self-test-slowdown: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "bench-check --baseline <JSON> --fresh <JSON> \
                     [--tolerance 0.15] [--self-test-slowdown 1.0]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let baseline_path = baseline_path.ok_or("--baseline is required")?;
    let fresh_path = fresh_path.ok_or("--fresh is required")?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("--tolerance must be in [0, 1), got {tolerance}"));
    }

    let baseline = load(&baseline_path)?;
    let fresh = load(&fresh_path)?;
    let kind = baseline
        .get("bench")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{baseline_path}: missing \"bench\" field"))?;
    if fresh.get("bench").and_then(Value::as_str) != Some(kind) {
        return Err(format!(
            "bench kind mismatch: baseline is {kind:?}, fresh is {:?}",
            fresh.get("bench").and_then(Value::as_str).unwrap_or("?")
        ));
    }
    let mut metrics = match kind {
        "ranking" => ranking_metrics(&baseline, &fresh),
        other => return Err(format!("unknown bench kind {other:?}")),
    };
    for m in &mut metrics {
        if m.is_speedup && slowdown != 1.0 {
            m.fresh = m.fresh.map(|v| v / slowdown);
        }
    }

    // The per-metric diff table, then the verdict.
    println!(
        "bench-check: {kind} vs {baseline_path} (tolerance {:.0}%{})",
        tolerance * 100.0,
        if slowdown != 1.0 {
            format!(", self-test slowdown ×{slowdown}")
        } else {
            String::new()
        }
    );
    println!(
        "{:<32} {:>10} {:>10} {:>8}  status",
        "metric", "baseline", "fresh", "ratio"
    );
    let mut regressions = 0usize;
    for m in &metrics {
        let (ratio_text, status) = match m.fresh {
            None => ("-".to_string(), "MISSING"),
            Some(fresh) => {
                let ratio = fresh / m.baseline;
                let regressed = if m.lower_only {
                    ratio < 1.0 - tolerance
                } else {
                    (ratio - 1.0).abs() > tolerance
                };
                (
                    format!("{ratio:.3}"),
                    if regressed { "REGRESSED" } else { "ok" },
                )
            }
        };
        if status != "ok" {
            regressions += 1;
        }
        println!(
            "{:<32} {:>10.3} {:>10} {:>8}  {status}",
            m.name,
            m.baseline,
            m.fresh.map_or("-".to_string(), |v| format!("{v:.3}")),
            ratio_text,
        );
    }
    if regressions > 0 {
        println!(
            "FAIL: {regressions}/{} metrics regressed beyond {:.0}%",
            metrics.len(),
            tolerance * 100.0
        );
        Ok(ExitCode::FAILURE)
    } else {
        println!("ok: all {} metrics within tolerance", metrics.len());
        Ok(ExitCode::SUCCESS)
    }
}

fn load(path: &str) -> Result<Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// `BENCH_ranking.json`: batched-vs-scalar speedup (drop-only) and the
/// deterministic dedup ratio (two-sided) per workload.
fn ranking_metrics(baseline: &Value, fresh: &Value) -> Vec<Metric> {
    let rows = |doc: &Value| -> Vec<(String, f64, f64)> {
        doc.get("workloads")
            .and_then(Value::as_array)
            .map(|ws| {
                ws.iter()
                    .filter_map(|w| {
                        Some((
                            w.get("workload")?.as_str()?.to_string(),
                            w.get("speedup")?.as_f64()?,
                            w.get("dedup_ratio")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let fresh_rows = rows(fresh);
    let mut metrics = Vec::new();
    for (workload, speedup, dedup) in rows(baseline) {
        let fresh_row = fresh_rows.iter().find(|(w, _, _)| *w == workload);
        metrics.push(Metric {
            name: format!("ranking.{workload}.speedup"),
            baseline: speedup,
            fresh: fresh_row.map(|&(_, s, _)| s),
            lower_only: true,
            is_speedup: true,
        });
        metrics.push(Metric {
            name: format!("ranking.{workload}.dedup_ratio"),
            baseline: dedup,
            fresh: fresh_row.map(|&(_, _, d)| d),
            lower_only: false,
            is_speedup: false,
        });
    }
    metrics
}
