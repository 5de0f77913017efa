//! `e2e` — runs one benchmark workload.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. Builds `kgfd` there, generates the
//! workload's inputs from the seed, runs it, checks every output, prints
//! each metric as `name value unit` and, as the last line, the result JSON
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` measures the
//! end-to-end metrics, `--trace 1` the per-layer ones. Results go to
//! `<target>/bench/<workload>-<seed>.json` (`.layers.json` when traced),
//! the traced ledger to `<target>/bench/<workload>-trace.json`.
//! Exits 1 when an output check failed, 2 on a usage or set-up error.

use kgfd_e2e_bench::inputs::Files;
use kgfd_e2e_bench::process::{target_dir, Kgfd};
use kgfd_e2e_bench::report::{self, Spec};
use kgfd_e2e_bench::run::{self, Run};
use kgfd_e2e_bench::workload::Workload;
use kgfd_e2e_bench::BenchResult;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match drive(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn drive(args: &Args) -> BenchResult<bool> {
    let root = std::env::current_dir()?;
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    let name = args.workload.name();
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!("workload {name} is not declared in BENCHMARK.json").into());
    }
    let kgfd = Kgfd::build(&root)?;
    let out_dir = target_dir(&root).join("bench");
    let work = run::work_dir(&out_dir, args.workload, args.seed);
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        kgfd,
        files: Files::create(work.clone())?,
    };
    let outcome = if args.trace {
        run::traced(&run)?
    } else {
        run::timed(&run)?
    };
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = report::select(declared, &outcome.metrics)?;
    for failure in &outcome.failures {
        eprintln!("e2e: FAILED {failure}");
    }

    for (n, v, u) in &outcome.info {
        println!("{n} {v} {u}");
    }
    print!("{}", report::lines(&metrics));
    println!(
        "ops {} attempted, {} failed",
        outcome.attempted,
        outcome.failures.len()
    );
    let result = report::result(outcome.attempted, outcome.failures.len() as u64, &metrics);

    let stem = format!(
        "{name}-{}{}",
        args.seed,
        if args.trace { ".layers" } else { "" }
    );
    let mut record = result.clone();
    if let serde_json::Value::Object(fields) = &mut record {
        fields.insert(0, ("workload".into(), serde_json::json!(name)));
        fields.insert(1, ("seed".into(), serde_json::json!((args.seed))));
        fields.insert(2, ("trace".into(), serde_json::json!((args.trace))));
        let info = outcome
            .info
            .iter()
            .map(|(n, v, _)| (n.clone(), serde_json::json!((*v))))
            .collect();
        fields.push(("info".into(), serde_json::Value::Object(info)));
    }
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        serde_json::to_string_pretty(&record)?,
    )?;
    if let Some(trace) = &outcome.trace {
        std::fs::write(out_dir.join(format!("{name}-trace.json")), trace)?;
    }
    if outcome.failures.is_empty() {
        std::fs::remove_dir_all(&work)?;
    }
    println!("{}", serde_json::to_string(&result)?);
    Ok(outcome.failures.is_empty())
}
