//! `kgfd` binary entry point.

use std::io::{ErrorKind, Write};

fn main() {
    let args = match kgfd_cli::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", kgfd_cli::USAGE);
            std::process::exit(2);
        }
    };
    match kgfd_cli::run(&args) {
        Ok(report) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
                // A reader that closed the pipe early (`kgfd ... | head`)
                // wanted no more output: that is a clean exit, not an error.
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("error: cannot write the report to stdout: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Distinct exit codes for persistence failures (corrupt file,
            // version skew, migration needed) — see `kgfd help`.
            std::process::exit(kgfd_cli::exit_code(e.as_ref()));
        }
    }
}
