//! The binary prints its report on stdout. A reader that stops early
//! (`kgfd train ... --quiet | head -c0`) closes the pipe; the run already
//! did its work, so that must be a clean exit, not a panic on stderr. The
//! same holds for `--progress` lines on a closed stderr, and a usage error
//! keeps its exit code when stderr is closed.

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

/// Runs `command` under `--quiet` with its stdout closed before it can
/// write its report: it must exit 0 with an empty stderr.
fn exits_cleanly_on_a_closed_stdout(command: &mut Command) {
    let mut child = command
        .arg("--quiet")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
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
}

#[test]
fn closed_stdout_exits_cleanly_with_an_empty_stderr_under_quiet() {
    let dir = toy_graph("train");
    let model = dir.join("m.kgfd");
    // The read end closes before the report: loading and training, or
    // generating the four datasets of Table 1, take far longer than
    // returning from `spawn`.
    exits_cleanly_on_a_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_kgfd"))
            .args(["train", "--model", "transe", "--dim", "8", "--epochs", "3"])
            .arg("--train")
            .arg(dir.join("train.tsv"))
            .arg("--out")
            .arg(&model),
    );
    assert!(model.exists(), "the model is written before the report");
    exits_cleanly_on_a_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_kgfd"))
            .args(["repro", "--target", "table1", "--scale", "mini"]),
    );
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

#[cfg(unix)]
#[test]
fn usage_error_on_a_closed_stderr_still_exits_2() {
    // The shell waits before starting `kgfd`, so the read end is closed
    // before the error and the usage are written.
    let mut child = Command::new("sh")
        .args(["-c", "sleep 0.2; exec \"$0\" repro --scale huge"])
        .arg(env!("CARGO_BIN_EXE_kgfd"))
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stderr.take());
    assert_eq!(child.wait().unwrap().code(), Some(2));
}
