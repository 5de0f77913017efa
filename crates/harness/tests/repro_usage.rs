//! `repro` refuses what it does not read: an unknown option or a third
//! positional argument is a usage error (exit 2) naming the argument, and
//! nothing runs. The exit code stands when stderr is closed.

use std::process::{Command, Stdio};

#[test]
fn unknown_options_and_extra_arguments_exit_2() {
    for (args, named) in [
        (
            &["table1", "mini", "--serve-metrics", "127.0.0.1:0"][..],
            "--serve-metrics",
        ),
        (&["table1", "--top_n", "3"][..], "--top_n"),
        (&["table1", "mini", "extra"][..], "extra"),
        (&["table1", "huge"][..], "huge"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no report");
    }
}

#[cfg(unix)]
#[test]
fn usage_error_on_a_closed_stderr_still_exits_2() {
    // The shell waits before starting `repro`, so the read end is closed
    // before the error line is written.
    let mut child = Command::new("sh")
        .args(["-c", "sleep 0.2; exec \"$0\" table1 huge"])
        .arg(env!("CARGO_BIN_EXE_repro"))
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stderr.take());
    assert_eq!(child.wait().unwrap().code(), Some(2));
}
