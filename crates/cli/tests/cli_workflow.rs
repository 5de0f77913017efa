//! End-to-end CLI workflow tests: generate → stats → train → eval →
//! discover, all through the library surface the binary wraps.

use kgfd_cli::{exit_code, run, Args};

fn args(line: &str) -> Args {
    Args::parse(line.split_whitespace().map(String::from)).unwrap()
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfd-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_on_toy_dataset() {
    let dir = tempdir("workflow");
    let d = dir.display();

    let out = run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    assert!(out.contains("toy-biomedical"), "{out}");
    assert!(dir.join("train.tsv").exists());
    assert!(dir.join("valid.tsv").exists());
    assert!(dir.join("test.tsv").exists());

    let out = run(&args(&format!("stats --train {d}/train.tsv"))).unwrap();
    assert!(out.contains("entities            16"), "{out}");
    assert!(out.contains("relations           5"), "{out}");
    assert!(out.contains("complement size"), "{out}");

    let model = dir.join("model.kgfd");
    let out = run(&args(&format!(
        "train --train {d}/train.tsv --model complex --dim 16 --epochs 25 --seed 4 --out {}",
        model.display()
    )))
    .unwrap();
    assert!(out.contains("trained complex"), "{out}");
    assert!(model.exists());

    let out = run(&args(&format!(
        "eval --train {d}/train.tsv --test {d}/test.tsv --valid {d}/valid.tsv --model-file {}",
        model.display()
    )))
    .unwrap();
    assert!(out.contains("MRR"), "{out}");

    let facts = dir.join("facts.tsv");
    let out = run(&args(&format!(
        "discover --train {d}/train.tsv --model-file {} --strategy ct \
         --top-n 10 --max-candidates 40 --out {}",
        model.display(),
        facts.display()
    )))
    .unwrap();
    assert!(out.contains("discovered"), "{out}");
    let written = std::fs::read_to_string(&facts).unwrap();
    for line in written.lines() {
        assert_eq!(line.split('\t').count(), 4, "s, r, o, rank: {line}");
    }

    let _ = std::fs::remove_dir_all(dir);
}

/// `exit_code` gives each persistence failure its own process exit code:
/// 3 for a corrupt file, 4 for an unknown format version, 5 for a retired
/// v1 file that needs retraining. The messages for 3 and 5 name the file.
#[test]
fn damaged_model_files_map_to_distinct_exit_codes() {
    let dir = tempdir("exit-codes");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let model = dir.join("model.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model complex --dim 8 --epochs 2 --seed 4 --out {}",
        model.display()
    )))
    .unwrap();
    let bytes = std::fs::read(&model).unwrap();

    let with_byte = |at: usize, value: u8| {
        let mut copy = bytes.clone();
        copy[at] = value;
        copy
    };
    // The last 4 bytes are the CRC-32 footer; the 4 before them are payload.
    let payload = bytes.len() - 8;
    // Byte 5 is the model kind, and tag 6 was RotatE's. The footer is
    // re-signed, so only the kind can refuse the file.
    let mut retired = with_byte(5, 6);
    let body = retired.len() - 4;
    let crc = kgfd_embed::crc32(&retired[..body]);
    retired[body..].copy_from_slice(&crc.to_le_bytes());
    // Byte 4 is the format version.
    let cases = [
        ("flipped.kgfd", with_byte(payload, !bytes[payload]), 3),
        ("version9.kgfd", with_byte(4, 9), 4),
        ("version1.kgfd", with_byte(4, 1), 5),
        ("tag6.kgfd", retired, 5),
    ];
    for (name, copy, code) in cases {
        let path = dir.join(name);
        std::fs::write(&path, &copy).unwrap();
        let err = run(&args(&format!(
            "eval --train {d}/train.tsv --test {d}/test.tsv --model-file {}",
            path.display()
        )))
        .expect_err("a damaged model file must fail eval");
        assert_eq!(exit_code(err.as_ref()), code, "{name}: {err}");
        if code != 4 {
            assert!(err.to_string().contains(name), "{name}: {err}");
        }
        if name == "tag6.kgfd" {
            assert!(err.to_string().contains("rotate"), "{name}: {err}");
        }
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stats_emits_json_when_asked() {
    let dir = tempdir("json");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let out = run(&args(&format!("stats --train {d}/train.tsv --json"))).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
    assert_eq!(parsed["summary"]["num_entities"], 16);
    assert!(parsed["transitivity"].is_number());
    assert!(parsed.get("components").is_none(), "{out}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn discover_scores_against_heldout() {
    let dir = tempdir("heldout");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let model = dir.join("m.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model complex --dim 16 --epochs 30 --seed 4 --out {}",
        model.display()
    )))
    .unwrap();
    let out = run(&args(&format!(
        "discover --train {d}/train.tsv --model-file {} --strategy ef \
         --top-n 16 --max-candidates 100 --heldout {d}/test.tsv --out {d}/f.tsv",
        model.display()
    )))
    .unwrap();
    assert!(out.contains("held-out check:"), "{out}");
    assert!(out.contains("recall"), "{out}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fit_emits_a_valid_profile() {
    let dir = tempdir("fit");
    let d = dir.display();
    run(&args(&format!(
        "generate --profile fb15k237 --scale mini --out {d}"
    )))
    .unwrap();
    let out = run(&args(&format!("fit --train {d}/train.tsv --name refit"))).unwrap();
    let profile: serde_json::Value = serde_json::from_str(&out).unwrap();
    assert_eq!(profile["name"], "refit");
    assert_eq!(profile["entities"], 145);
    assert!(profile["entity_skew"].as_f64().unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn eval_per_relation_lists_relations() {
    let dir = tempdir("perrel");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    let model = dir.join("m.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model distmult --dim 16 --epochs 10 --out {}",
        model.display()
    )))
    .unwrap();
    let out = run(&args(&format!(
        "eval --train {d}/train.tsv --test {d}/test.tsv --model-file {} --per-relation",
        model.display()
    )))
    .unwrap();
    assert!(out.contains("per relation:"), "{out}");
    assert!(out.contains("treats"), "{out}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn helpful_errors() {
    let dir = tempdir("errors");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    // Command-line mistakes are usage errors (exit 2, as `kgfd help`
    // documents) that name what was wrong; a failure of a well-formed
    // command stays exit 1.
    let model = dir.join("m.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model transe --dim 8 --epochs 1 --out {}",
        model.display()
    )))
    .unwrap();
    let m = model.display();
    let cases = [
        (
            "frobnicate".to_string(),
            2,
            "unknown command \"frobnicate\"",
        ),
        (format!("complete --train {d}/train.tsv"), 2, "complete"),
        (
            format!("audit-inverse --train {d}/train.tsv"),
            2,
            "audit-inverse",
        ),
        ("stats".to_string(), 2, "--train"),
        (format!("generate --profile nell --out {d}/g"), 2, "nell"),
        (
            format!("generate --profile wn18rr --scale huge --out {d}/g"),
            2,
            "huge",
        ),
        (
            format!("train --train {d}/train.tsv --model gpt --out {d}/x"),
            2,
            "unknown model \"gpt\"",
        ),
        (
            format!("train --train {d}/train.tsv --model transe --loss hinge --out {d}/x"),
            2,
            "hinge",
        ),
        (
            format!("train --train {d}/train.tsv --model transe --dim abc --out {d}/x"),
            2,
            "abc",
        ),
        (
            format!("discover --train {d}/train.tsv --model-file {m} --strategy pr"),
            2,
            "unknown strategy \"pr\"",
        ),
        (
            format!("discover --train {d}/train.tsv --model-file {m} --top-k many"),
            2,
            "many",
        ),
        // An option the command does not read is refused before any work:
        // a misspelling, a removed flag, or another command's option.
        (
            format!("discover --train {d}/train.tsv --model-file {m} --top_n 10"),
            2,
            "unknown option \"--top_n\"",
        ),
        (
            format!("discover --train {d}/train.tsv --model-file {m} --explore 0.5"),
            2,
            "unknown option \"--explore\"",
        ),
        (
            format!("train --train {d}/train.tsv --model transe --out {d}/x --serve-metrics 127.0.0.1:0"),
            2,
            "unknown option \"--serve-metrics\"",
        ),
        (
            format!("serve --train {d}/train.tsv --model-file {m} --test-endpoints"),
            2,
            "unknown option \"--test-endpoints\"",
        ),
        (
            format!("serve --train {d}/train.tsv --model-file {m} --max-body-bytes 10"),
            2,
            "unknown option \"--max-body-bytes\"",
        ),
        (
            format!("generate --profile toy --out {d}/g --threads 2"),
            2,
            "unknown option \"--threads\"",
        ),
        (
            format!("eval --train {d}/train.tsv --test {d}/test.tsv --model-file {d}/none"),
            1,
            "none",
        ),
    ];
    for (line, code, named) in &cases {
        let err = run(&args(line)).expect_err(line);
        assert_eq!(exit_code(err.as_ref()), *code, "{line}: {err}");
        assert!(err.to_string().contains(named), "{line}: {err}");
    }

    // The binary applies the code and prints the usage after the error.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .arg("complete")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown command \"complete\"\n\nkgfd"),
        "{stderr}"
    );
    assert!(stderr.contains("EXIT CODES"), "{stderr}");
    assert!(out.stdout.is_empty());

    // A refused option starts nothing: no model, no metrics file.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .args(["train", "--model", "transe", "--epochs", "1"])
        .arg("--train")
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(dir.join("refused.kgfd"))
        .arg("--metrics-out")
        .arg(dir.join("refused.jsonl"))
        .args(["--serve-metrics", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown option \"--serve-metrics\"\n\nkgfd"),
        "{stderr}"
    );
    assert!(!dir.join("refused.kgfd").exists());
    assert!(!dir.join("refused.jsonl").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn eval_rejects_mismatched_model() {
    let dir = tempdir("mismatch");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    // Train a model on a *different* (mini fb15k237) graph.
    let other = tempdir("mismatch-other");
    let od = other.display();
    run(&args(&format!(
        "generate --profile fb15k237 --scale mini --out {od}"
    )))
    .unwrap();
    let model = dir.join("wrong.kgfd");
    run(&args(&format!(
        "train --train {od}/train.tsv --model distmult --dim 16 --epochs 2 --out {}",
        model.display()
    )))
    .unwrap();
    let err = run(&args(&format!(
        "eval --train {d}/train.tsv --test {d}/test.tsv --model-file {}",
        model.display()
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("does not match"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(other);
}

#[test]
fn held_out_split_with_unknown_entity_is_rejected() {
    let dir = tempdir("unknown-entity");
    let d = dir.display();
    run(&args(&format!("generate --profile toy --out {d}"))).unwrap();
    std::fs::write(dir.join("bad.tsv"), "martian\ttreats\tdisease0\n").unwrap();
    let model = dir.join("m.kgfd");
    run(&args(&format!(
        "train --train {d}/train.tsv --model transe --dim 8 --epochs 2 --out {}",
        model.display()
    )))
    .unwrap();
    let err = run(&args(&format!(
        "eval --train {d}/train.tsv --test {d}/bad.tsv --model-file {}",
        model.display()
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("martian"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}
