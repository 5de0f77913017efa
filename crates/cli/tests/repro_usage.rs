//! `kgfd repro` refuses what it does not read: an unknown option, an
//! unknown target or scale, a zero thread count, or a stray positional
//! argument is a usage error (exit 2) naming the argument, and nothing runs.

use std::process::Command;

#[test]
fn unknown_options_and_extra_arguments_exit_2() {
    for (args, named) in [
        (
            &[
                "repro",
                "--target",
                "table1",
                "--serve-metrics",
                "127.0.0.1:0",
            ][..],
            "unknown option \"--serve-metrics\"",
        ),
        (
            &["repro", "--target", "table1", "--top_n", "3"][..],
            "unknown option \"--top_n\"",
        ),
        (
            &["repro", "--target", "table1", "--metrics-dir", "d"][..],
            "unknown option \"--metrics-dir\"",
        ),
        (&["repro", "--target", "table1", "extra"][..], "extra"),
        (&["repro", "table1"][..], "table1"),
        (
            &["repro", "--target", "table1", "--scale", "huge"][..],
            "unknown scale \"huge\"",
        ),
        (
            &["repro", "--target", "fig99"][..],
            "unknown target \"fig99\"",
        ),
        (&["repro", "--threads", "0"][..], "--threads"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kgfd"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no report");
    }
}
