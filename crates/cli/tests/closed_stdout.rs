//! The binary prints its report on stdout. A reader that stops early
//! (`kgfd train ... --quiet | head -c0`) closes the pipe; the run already
//! did its work, so that must be a clean exit, not a panic on stderr. The
//! same holds for `--progress` lines on a closed stderr.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfd-pipe-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh directory holding the toy graph.
fn toy_graph(name: &str) -> PathBuf {
    let dir = tempdir(name);
    let status = Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .args(["generate", "--profile", "toy", "--out"])
        .arg(&dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    dir
}

#[test]
fn closed_stdout_exits_cleanly_with_an_empty_stderr_under_quiet() {
    let dir = toy_graph("train");
    let model = dir.join("m.kgfd");
    let mut child = Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .args(["train", "--model", "transe", "--dim", "8", "--epochs", "3"])
        .arg("--train")
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(&model)
        .arg("--quiet")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child can get to its report: loading
    // and training take far longer than returning from `spawn`.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();

    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "--quiet must keep stderr empty, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists(), "the model is written before the report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stderr_does_not_stop_a_progress_run() {
    let dir = toy_graph("progress");
    let model = dir.join("m.kgfd");
    let mut child = Command::new(env!("CARGO_BIN_EXE_kgfd"))
        .args(["train", "--model", "transe", "--dim", "8", "--epochs", "50"])
        .arg("--train")
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(&model)
        .arg("--progress")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the first progress line: every line the
    // run writes then fails with a broken pipe.
    drop(child.stderr.take());
    let out = child.wait_with_output().unwrap();

    assert_eq!(out.status.code(), Some(0));
    assert!(model.exists(), "the run finished and wrote its model");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("trained transe"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}
