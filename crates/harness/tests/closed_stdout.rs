//! `repro` prints its report on stdout. A reader that stops early
//! (`repro table1 mini --quiet | head -c0`) closes the pipe; the run already
//! did its work, so that must be a clean exit, not a panic on stderr.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_cleanly_with_an_empty_stderr_under_quiet() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "mini", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child can get to its report: generating
    // the four datasets takes far longer than returning from `spawn`.
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
