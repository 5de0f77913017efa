//! Observability behaviour of the CLI: `--metrics-out` JSONL files and the
//! manifests they close with, `--quiet`, and the `"n/a"` rendering of
//! undefined losses.
//!
//! These tests install process-global observers, so they serialize on a
//! mutex; they live in their own test binary to keep the workflow tests'
//! observers out of the picture.

use kgfd_cli::{run, Args};
use std::sync::Mutex;

static OBSERVER_LOCK: Mutex<()> = Mutex::new(());

fn args(line: &str) -> Args {
    Args::parse(line.split_whitespace().map(String::from)).unwrap()
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfd-obs-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses every line of a JSONL sink back through the typed event schema.
fn read_events(path: &std::path::Path) -> Vec<kgfd_obs::Event> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| {
            let value: serde_json::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
            serde::Deserialize::deserialize(&value)
                .unwrap_or_else(|e| panic!("line does not match the event schema ({e}): {line}"))
        })
        .collect()
}

#[test]
fn discover_metrics_out_is_parseable_jsonl_with_spans_and_manifest() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("discover");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let model = dir.join("m.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model complex --dim 16 --epochs 20 --seed 4 --out {}",
        model.display()
    )))
    .unwrap();

    let metrics = dir.join("run.jsonl");
    run(&args(&format!(
        "discover --train {d}/train.tsv --model-file {} --strategy ef \
         --top-n 10 --max-candidates 40 --metrics-out {}",
        model.display(),
        metrics.display()
    )))
    .unwrap();

    let events = read_events(&metrics);
    assert!(!events.is_empty());

    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.payload {
            kgfd_obs::Payload::SpanEnd { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        span_names.contains(&"discover.preparation"),
        "{span_names:?}"
    );
    assert!(
        span_names.contains(&"discover.generation"),
        "{span_names:?}"
    );
    assert!(
        span_names.contains(&"discover.evaluation"),
        "{span_names:?}"
    );
    assert!(span_names.contains(&"discover.total"), "{span_names:?}");

    // Per-relation spans carry the relation as a structured field. The toy
    // graph has 5 relations, so generation runs 5 times.
    let generation_relations: Vec<&kgfd_obs::FieldValue> = events
        .iter()
        .filter_map(|e| match &e.payload {
            kgfd_obs::Payload::SpanEnd { name, fields, .. } if name == "discover.generation" => {
                fields
                    .iter()
                    .find(|f| f.key == "relation")
                    .map(|f| &f.value)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        generation_relations.len(),
        5,
        "one generation span per relation"
    );

    // The closing event is the run manifest.
    match &events.last().unwrap().payload {
        kgfd_obs::Payload::Manifest(m) => {
            assert_eq!(m.command, "discover");
            assert_eq!(m.strategy, "ENTITY FREQUENCY");
            assert_eq!(m.dataset.relations, 5);
            assert!(m.wall_clock_s > 0.0);
            assert!(m.config.iter().any(|f| f.key == "top_n"));
        }
        other => panic!("expected a closing manifest, got {other:?}"),
    }
}

#[test]
fn ranking_manifests_name_the_kernel_codegen() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("kernel");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    run(&args(&format!(
        "train --train {d}/train.tsv --model transe --dim 16 --epochs 3 --out {d}/m.kgfd"
    )))
    .unwrap();

    // The value is the scoring kernels' own detection, and one of two.
    let kernel = kgfd_embed::kernel_path();
    assert!(matches!(kernel, "avx2" | "portable"), "{kernel}");
    let model = format!("--train {d}/train.tsv --model-file {d}/m.kgfd");
    for (command, options) in [
        ("eval", format!("--test {d}/test.tsv")),
        ("discover", "--top-n 10 --max-candidates 40".to_string()),
        (
            "serve",
            "--addr 127.0.0.1:0 --for-secs 0 --quiet".to_string(),
        ),
    ] {
        let metrics = dir.join(format!("{command}.jsonl"));
        run(&args(&format!(
            "{command} {model} {options} --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        match &read_events(&metrics).last().unwrap().payload {
            kgfd_obs::Payload::Manifest(m) => {
                assert_eq!(m.command, command);
                let entry = m.config.iter().find(|f| f.key == "embed.kernel");
                let expect = kgfd_obs::FieldValue::Text(kernel.to_string());
                assert_eq!(entry.map(|f| &f.value), Some(&expect), "{command}");
            }
            other => panic!("expected a closing manifest, got {other:?}"),
        }
    }
}

#[test]
fn every_command_closes_its_metrics_file_with_a_manifest() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("every-command");
    let d = dir.display();
    for (command, options) in [
        ("generate", format!("--profile toy --out {d}")),
        ("stats", format!("--train {d}/train.tsv")),
        ("repro", "--target table1 --scale mini".to_string()),
    ] {
        let metrics = dir.join(format!("{command}.jsonl"));
        run(&args(&format!(
            "{command} {options} --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        let events = read_events(&metrics);
        match &events.last().expect("a metrics line").payload {
            kgfd_obs::Payload::Manifest(m) => assert_eq!(m.command, command),
            other => panic!("kgfd {command}: expected a closing manifest, got {other:?}"),
        }
    }
}

#[test]
fn train_metrics_out_has_per_epoch_loss_events() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("train");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let metrics = dir.join("train.jsonl");
    run(&args(&format!(
        "train --train {d}/train.tsv --model distmult --dim 16 --epochs 7 --out {d}/m.kgfd \
         --metrics-out {}",
        metrics.display()
    )))
    .unwrap();

    let events = read_events(&metrics);
    let losses: Vec<f64> = events
        .iter()
        .filter_map(|e| match &e.payload {
            kgfd_obs::Payload::Metric { name, value, .. } if name == "embed.train.epoch_loss" => {
                Some(*value)
            }
            _ => None,
        })
        .collect();
    assert_eq!(losses.len(), 7, "one loss event per epoch");
    assert!(losses.iter().all(|l| l.is_finite()));
    match &events.last().unwrap().payload {
        kgfd_obs::Payload::Manifest(m) => assert_eq!(m.command, "train"),
        other => panic!("expected a closing manifest, got {other:?}"),
    }
}

#[test]
fn zero_epoch_loss_renders_as_na_everywhere() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("zero-epoch");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let metrics = dir.join("zero.jsonl");
    let out = run(&args(&format!(
        "train --train {d}/train.tsv --model transe --dim 8 --epochs 0 --out {d}/m.kgfd \
         --metrics-out {}",
        metrics.display()
    )))
    .unwrap();
    assert!(out.contains("final training loss n/a"), "{out}");
    assert!(!out.contains("NaN"), "{out}");

    let raw = std::fs::read_to_string(&metrics).unwrap();
    assert!(!raw.contains("NaN"), "NaN leaked into JSON: {raw}");
    let events = read_events(&metrics);
    match &events.last().unwrap().payload {
        kgfd_obs::Payload::Manifest(m) => {
            let loss = m.config.iter().find(|f| f.key == "final_loss").unwrap();
            assert_eq!(loss.value, kgfd_obs::FieldValue::Text("n/a".to_string()));
        }
        other => panic!("expected a closing manifest, got {other:?}"),
    }
}

#[test]
fn trace_out_and_flame_out_write_valid_exports() {
    let _serial = OBSERVER_LOCK.lock().unwrap();
    let dir = tempdir("trace-out");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    run(&args(&format!(
        "train --train {d}/train.tsv --model transe --dim 16 --epochs 5 --out {d}/m.kgfd"
    )))
    .unwrap();

    let trace = dir.join("trace.json");
    let flame = dir.join("flame.txt");
    run(&args(&format!(
        "discover --train {d}/train.tsv --model-file {d}/m.kgfd --strategy ur \
         --top-n 10 --max-candidates 40 --threads 4 --trace-out {} --flame-out {}",
        trace.display(),
        flame.display()
    )))
    .unwrap();

    // The Chrome trace must be valid JSON with complete-duration events
    // whose parent references all resolve.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    let ids: std::collections::HashSet<u64> = events
        .iter()
        .map(|e| e["args"]["id"].as_u64().expect("args.id"))
        .collect();
    for e in events {
        assert_eq!(e["ph"], "X", "complete-duration events only");
        assert!(e["dur"].as_u64().is_some() && e["ts"].as_u64().is_some());
        if let Some(parent) = e["args"]["parent"].as_u64() {
            assert!(ids.contains(&parent), "dangling parent {parent}");
        }
    }
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    assert!(names.contains(&"cli.command"), "{names:?}");
    assert!(names.contains(&"discover.total"), "{names:?}");
    assert!(names.contains(&"discover.relation"), "{names:?}");

    // The flamegraph is collapsed-stack text: `root;child;... <self_us>`.
    let flame_text = std::fs::read_to_string(&flame).unwrap();
    assert!(!flame_text.trim().is_empty());
    for line in flame_text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack <count>");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("numeric self-time");
    }
    assert!(
        flame_text
            .lines()
            .any(|l| l.starts_with("cli.command;discover.total;")),
        "stacks should be rooted at cli.command: {flame_text}"
    );

    // In-process runs must leave the global collector disabled and empty.
    assert!(!kgfd_obs::collector().is_enabled());
    assert!(kgfd_obs::collector().is_empty());
}

#[test]
fn quiet_run_produces_no_stderr() {
    let dir = tempdir("quiet");
    let d = dir.display();
    // Set up the inputs in-process (serialized with the other tests).
    {
        let _serial = OBSERVER_LOCK.lock().unwrap();
        run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
        run(&args(&format!(
            "train --train {d}/train.tsv --model distmult --dim 16 --epochs 10 --out {d}/m.kgfd"
        )))
        .unwrap();
    }
    // Then drive the real binary so stderr can be captured end-to-end.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .args([
            "discover",
            "--train",
            &format!("{d}/train.tsv"),
            "--model-file",
            &format!("{d}/m.kgfd"),
            "--top-n",
            "10",
            "--max-candidates",
            "40",
            "--quiet",
        ])
        .output()
        .expect("kgfd binary runs");
    assert!(output.status.success());
    assert!(
        output.stderr.is_empty(),
        "--quiet must silence stderr, got: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty(), "the report still goes to stdout");
}
