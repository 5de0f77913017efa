//! End-to-end test of `kgfd serve` as a real process: boot, announce,
//! liveness phase, one query per endpoint, SIGTERM drain, exit 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn kgfd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kgfd"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfd-serve-e2e-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One HTTP request over a fresh connection; returns the raw response.
fn request(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// The toy dataset's training graph and a small model trained on it, in
/// `dir`, written through the same library code the CLI uses.
fn toy_fixture(dir: &std::path::Path) -> (PathBuf, PathBuf, kgfd_kg::Dataset) {
    let train_tsv = dir.join("train.tsv");
    let model_file = dir.join("toy.kgm");
    let data = kgfd_datasets::toy_biomedical();
    let tsv = std::fs::File::create(&train_tsv).unwrap();
    kgfd_kg::write_triples_tsv(tsv, data.train.triples(), &data.vocab).unwrap();
    let (model, _) = kgfd_embed::train(
        kgfd_embed::ModelKind::DistMult,
        &data.train,
        &kgfd_embed::TrainConfig {
            dim: 8,
            epochs: 5,
            seed: 3,
            ..kgfd_embed::TrainConfig::default()
        },
    );
    kgfd_embed::write_model_file(&model_file, model.as_ref()).unwrap();
    (train_tsv, model_file, data)
}

#[test]
fn serve_boots_answers_and_drains_on_sigterm() {
    let dir = tempdir("drain");
    let (train_tsv, model_file, data) = toy_fixture(&dir);

    let mut child = kgfd()
        .args([
            "serve",
            "--train",
            train_tsv.to_str().unwrap(),
            "--model-file",
            model_file.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--for-secs",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kgfd serve");

    // The server announces its bound (ephemeral) address on stderr.
    let serve_addr = BufReader::new(child.stderr.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .find_map(|line| {
            line.strip_prefix("serving kgfd on http://")
                .map(|rest| rest.trim().to_string())
        })
        .expect("serve address announced");

    // The phase race regression, end to end: the *first* request after the
    // announce must already report this command's phase.
    let health = request(&serve_addr, "GET", "/healthz", "");
    assert!(
        health.contains("\"phase\":\"serve\""),
        "/healthz must show phase serve immediately, got: {health}"
    );
    assert!(health.contains("\"status\":\"ok\""), "got: {health}");
    assert!(health.contains("toy"), "got: {health}");
    let t = data.train.triples()[0];
    let body = format!(
        "{{\"model\": \"toy\", \"triples\": [[\"{}\", \"{}\", \"{}\"]]}}",
        data.vocab.entity_label(t.subject).unwrap(),
        data.vocab.relation_label(t.relation).unwrap(),
        data.vocab.entity_label(t.object).unwrap()
    );
    let rank = request(&serve_addr, "POST", "/v1/rank", &body);
    assert!(rank.starts_with("HTTP/1.1 200"), "got: {rank}");
    let bad = request(&serve_addr, "POST", "/v1/rank", "{oops");
    assert!(bad.starts_with("HTTP/1.1 400"), "got: {bad}");

    // SIGTERM → graceful drain → exit 0 with the closing report.
    let pid = child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "kgfd serve did not exit on SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "drained exit must be 0, got {exit:?}");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(
        stdout.contains("drained cleanly: 2/2 workers joined, 0 handler panics"),
        "closing report must show a clean drain, got: {stdout}"
    );
}

/// `--rank-threads` goes through the one thread-count policy: a request
/// beyond the widest accepted count (the CPU count, or `KGFD_THREADS` if
/// larger) is clamped with a warning, and the manifest records the clamped
/// width. `--for-secs 0` sends no request, so no fan-out starts a thread.
#[test]
fn rank_threads_beyond_the_cpu_count_are_clamped() {
    let dir = tempdir("clamp");
    let (train_tsv, model_file, _) = toy_fixture(&dir);
    let metrics = dir.join("serve.jsonl");
    let out = kgfd()
        .args(["serve", "--train", train_tsv.to_str().unwrap()])
        .args(["--model-file", model_file.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--rank-threads", "100000"])
        .args(["--for-secs", "0", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("kgfd serve runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let clamped: u64 = stderr
        .lines()
        .find_map(|line| line.split("clamping to ").nth(1))
        .unwrap_or_else(|| panic!("no clamp warning on stderr: {stderr}"))
        .trim()
        .parse()
        .expect("the clamped width");
    let env_threads = std::env::var("KGFD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    assert_eq!(clamped, cores.max(env_threads), "{stderr}");

    let last = std::fs::read_to_string(&metrics).unwrap();
    let last = last.lines().last().expect("a metrics line");
    let event: kgfd_obs::Event = serde_json::from_str(last).unwrap();
    let kgfd_obs::Payload::Manifest(manifest) = event.payload else {
        panic!("the last line is not a manifest: {last}");
    };
    let field = |key: &str| {
        let field = manifest.config.iter().find(|f| f.key == key);
        field.map(|f| f.value.clone())
    };
    let uint = |n| Some(kgfd_obs::FieldValue::UInt(n));
    assert_eq!(field("serve.requests"), uint(0));
    assert_eq!(field("serve.rank_threads"), uint(clamped));
}
