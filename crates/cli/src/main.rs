//! `kgfd` binary entry point.

use std::io::{ErrorKind, Write};

fn main() {
    let result = kgfd_cli::Args::parse(std::env::args().skip(1))
        .map_err(Into::into)
        .and_then(|args| kgfd_cli::run(&args));
    match result {
        Ok(report) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
                // A reader that closed the pipe early (`kgfd ... | head`)
                // wanted no more output: that is a clean exit, not an error.
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    let _ = writeln!(
                        std::io::stderr(),
                        "error: cannot write the report to stdout: {e}"
                    );
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            // Distinct exit codes for usage errors and persistence failures
            // (corrupt file, version skew, migration needed) — see
            // `kgfd help`. A usage error also prints the usage. The code
            // stands even when stderr is closed.
            let code = kgfd_cli::exit_code(e.as_ref());
            let mut stderr = std::io::stderr().lock();
            let _ = writeln!(stderr, "error: {e}");
            if code == 2 {
                let _ = writeln!(stderr, "\n{}", kgfd_cli::USAGE);
            }
            std::process::exit(code);
        }
    }
}
