//! Building and running the `kgfd` binary: wall time and peak RSS of every
//! process, and a server handle that never outlives the benchmark.
//!
//! Peak RSS comes from `wait4(2)`'s `ru_maxrss` and signals from `kill(2)`,
//! declared directly the way `crates/serve/src/signal.rs` declares
//! `signal(2)` (std already links the C runtime). Linux only: `ru_maxrss`
//! is in KiB there, and the server's peak comes from `/proc/<pid>/status`.

use crate::BenchResult;
use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SIGKILL: c_int = 9;
const SIGTERM: c_int = 15;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    ru_maxrss: c_long,
    ru_rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// Reaps `pid`, returning its wait status and peak RSS in KiB.
fn reap(pid: u32) -> BenchResult<(c_int, u64)> {
    let mut status: c_int = 0;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4(2) expects; `pid` is a child this process spawned and
        // has not reaped yet.
        let rc = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
        if rc == pid as c_int {
            return Ok((status, usage.ru_maxrss.max(0) as u64));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}").into());
        }
    }
}

fn signal(pid: u32, sig: c_int) {
    // SAFETY: kill(2) takes plain integers; at worst it reports ESRCH for a
    // process that already exited, which the caller handles by reaping.
    unsafe {
        kill(pid as c_int, sig);
    }
}

/// `Some(code)` for a normal exit, `None` when a signal ended the process.
fn exit_code(status: c_int) -> Option<i32> {
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// One finished `kgfd` process.
#[derive(Debug)]
pub struct Finished {
    pub wall: Duration,
    pub max_rss_kib: u64,
    pub code: Option<i32>,
    pub stdout: String,
}

/// The `kgfd` binary of the checkout.
#[derive(Debug, Clone)]
pub struct Kgfd {
    bin: PathBuf,
}

impl Kgfd {
    /// Builds `kgfd` from the checkout at `root` with the toolchain that
    /// built this benchmark, into `CARGO_TARGET_DIR` (default `target`), and
    /// returns the binary in that target directory.
    pub fn build(root: &Path) -> BenchResult<Kgfd> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(root)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "kgfd-cli", "--bin", "kgfd"])
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(format!("building kgfd failed: {status}").into());
        }
        let bin = target_dir(root).join("release").join("kgfd");
        if !bin.is_file() {
            return Err(format!("kgfd was built but {} is missing", bin.display()).into());
        }
        Ok(Kgfd { bin })
    }

    /// Runs `kgfd <args>` to completion, capturing stdout (stderr is passed
    /// through so failures explain themselves).
    pub fn run<S: AsRef<OsStr>>(&self, args: &[S]) -> BenchResult<Finished> {
        let start = Instant::now();
        let mut child = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = String::new();
        let read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout);
        let (status, max_rss_kib) = reap(child.id())?;
        let wall = start.elapsed();
        read?;
        Ok(Finished {
            wall,
            max_rss_kib,
            code: exit_code(status),
            stdout,
        })
    }

    /// Starts `kgfd serve <args> --addr 127.0.0.1:0` and waits for it to
    /// announce its address and answer `GET /healthz`.
    pub fn serve<S: AsRef<OsStr>>(&self, args: &[S]) -> BenchResult<ServerProcess> {
        let mut child = Command::new(&self.bin)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let pid = child.id();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the server's whole life so it can never block
        // on a full pipe; the announce line is handed over on the way.
        let stderr_thread = std::thread::spawn(move || {
            let mut rest = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                match line.strip_prefix("serving kgfd on http://") {
                    Some(addr) => {
                        let _ = tx.send(addr.trim().to_string());
                    }
                    None => {
                        rest.push_str(&line);
                        rest.push('\n');
                    }
                }
            }
            rest
        });
        let mut server = ServerProcess {
            child,
            pid,
            addr: None,
            stderr_thread: Some(stderr_thread),
            reaped: false,
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "kgfd serve did not announce its address")?;
        let addr: SocketAddr = addr.parse()?;
        server.addr = Some(addr);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match crate::traffic::get(addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err("kgfd serve never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// The target directory cargo builds into for the checkout at `root`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// A running `kgfd serve`. Dropping it without [`ServerProcess::terminate`]
/// kills and reaps the process, so no server outlives the benchmark.
pub struct ServerProcess {
    child: Child,
    pid: u32,
    addr: Option<SocketAddr>,
    stderr_thread: Option<JoinHandle<String>>,
    reaped: bool,
}

impl ServerProcess {
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("address is known once serve() returns")
    }

    /// The server's peak resident set so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> BenchResult<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// SIGTERM, then waits for the graceful drain to finish. Returns the
    /// process outcome with its closing report on stdout.
    pub fn terminate(mut self) -> BenchResult<Finished> {
        let start = Instant::now();
        signal(self.pid, SIGTERM);
        let mut stdout = String::new();
        let read = self
            .child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout);
        let (status, max_rss_kib) = reap(self.pid)?;
        self.reaped = true;
        read?;
        if let Some(t) = self.stderr_thread.take() {
            let rest = t.join().unwrap_or_default();
            if !rest.trim().is_empty() {
                eprint!("{rest}");
            }
        }
        Ok(Finished {
            wall: start.elapsed(),
            max_rss_kib,
            code: exit_code(status),
            stdout,
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if !self.reaped {
            signal(self.pid, SIGKILL);
            let _ = reap(self.pid);
        }
        if let Some(t) = self.stderr_thread.take() {
            let _ = t.join();
        }
    }
}
