//! The workload runners. A timed run measures the end-to-end metrics on
//! whole `kgfd` processes (or served requests) with tracing off; a traced
//! run replays the workload in-process into a [`Ledger`] and measures the
//! per-layer metrics, plus the binary-level ratios (thread scaling,
//! tracing overhead, transport overhead) that need real processes.

use crate::inputs::{generate, read, write_tsvs, Files};
use crate::ledger::Ledger;
use crate::process::{Finished, Kgfd, ServerProcess};
use crate::replay::{self, Discovered, RankLog, ServeState};
use crate::stats::{digest, median, quantile};
use crate::traffic::{self, drive, Endpoint, Mix, Request, Stream};
use crate::workload::{Op, Workload, DIM, MAX_CANDIDATES, SETUP_REPS, THREADS, TOP_N};
use crate::BenchResult;
use fact_discovery::StrategyKind;
use kgfd_datasets::DatasetProfile;
use kgfd_embed::{load_model, read_model_file, KgeModel};
use kgfd_kg::{Dataset, Triple};
use serde_json::Value;
use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The end-to-end metrics every timed run reports. Every workload must
/// report each of them, so they are the ones all workloads share; the
/// workload-specific numbers (`facts_per_hour`, `serve_rps`, the serve
/// percentiles) are printed as context. A tail percentile is not among
/// them: the CLI workloads complete too few operations per run for one.
pub const END_TO_END: [&str; 3] = ["setup_s", "op_ms", "peak_rss_mb"];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 20] = [
    "kg.load_s",
    "kg.known_index_s",
    "embed.model_read_s",
    "embed.train_epoch_s",
    "core.measures_s",
    "core.sampling_s",
    "core.topk_s",
    "core.fact_yield",
    "eval.rank_s",
    "eval.rank.dedup_ratio",
    "eval.rank.distinct_queries_per_s",
    "embed.kernel_s",
    "embed.kernel_gb_per_s",
    "pool.speedup_2t",
    "pool.queue_wait_p95_us",
    "obs.trace_overhead_pct",
    "transport.overhead_ms",
    "serve.cache_hit_share",
    "serve.shed",
    "ledger.coverage",
];

/// Load before the measured window of `serve-fb`.
const WARMUP: Duration = Duration::from_secs(2);
/// Request streams of the seed (see [`traffic::drive`]): stream 0 builds
/// the hot set, the others keep warm-up, measured load and the replayed
/// sample apart.
const MEASURED_STREAM: u64 = 1;
const WARMUP_STREAM: u64 = 11;
const SAMPLE_STREAM: u64 = 21;
/// Requests replayed in-process (and re-sent for comparison) in a traced
/// `serve-fb` run.
const SERVE_SAMPLE: usize = 100;

/// One benchmark run's settings.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub kgfd: Kgfd,
    pub files: Files,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed next to the metrics (counts, per-endpoint detail).
    pub info: Vec<(String, f64, &'static str)>,
    /// Operations attempted: `kgfd` processes, HTTP requests.
    pub attempted: u64,
    /// One line per failed operation or output check.
    pub failures: Vec<String>,
    /// Chrome trace JSON of a traced run's ledger.
    pub trace: Option<String>,
}

impl Outcome {
    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }
}

pub fn timed(run: &Run) -> BenchResult<Outcome> {
    match run.workload {
        Workload::ServeFb => timed_serve(run),
        _ => timed_cli(run),
    }
}

pub fn traced(run: &Run) -> BenchResult<Outcome> {
    match run.workload {
        Workload::ServeFb => traced_serve(run),
        _ => traced_cli(run),
    }
}

// ---------------------------------------------------------------------------
// Command lines
// ---------------------------------------------------------------------------

fn os(parts: &[&dyn AsRef<OsStr>]) -> Vec<OsString> {
    parts.iter().map(|p| p.as_ref().to_owned()).collect()
}

fn train_args(run: &Run, model: &Path, epochs: usize, threads: usize) -> Vec<OsString> {
    os(&[
        &"train",
        &"--train",
        &run.files.train(),
        &"--model",
        &"transe",
        &"--dim",
        &DIM.to_string(),
        &"--epochs",
        &epochs.to_string(),
        &"--seed",
        &run.seed.to_string(),
        &"--threads",
        &threads.to_string(),
        &"--out",
        &model,
        &"--quiet",
    ])
}

fn eval_args(run: &Run, model: &Path, threads: usize) -> Vec<OsString> {
    os(&[
        &"eval",
        &"--train",
        &run.files.train(),
        &"--test",
        &run.files.test(),
        &"--model-file",
        &model,
        &"--threads",
        &threads.to_string(),
        &"--quiet",
    ])
}

fn discover_args(
    run: &Run,
    strategy: StrategyKind,
    model: &Path,
    threads: usize,
    facts: &Path,
) -> Vec<OsString> {
    os(&[
        &"discover",
        &"--train",
        &run.files.train(),
        &"--model-file",
        &model,
        &"--strategy",
        &strategy.abbrev(),
        &"--top-n",
        &TOP_N.to_string(),
        &"--max-candidates",
        &MAX_CANDIDATES.to_string(),
        &"--seed",
        &run.seed.to_string(),
        &"--threads",
        &threads.to_string(),
        &"--out",
        &facts,
        &"--quiet",
    ])
}

/// Extra observability flags of a binary run in a traced run.
#[derive(Clone, Copy, PartialEq)]
enum Obs {
    Off,
    /// `--metrics-out`, for the manifest's pool section.
    Metrics,
    /// `--metrics-out` and `--trace-out`: differs from `Metrics` only by
    /// span collection, so the wall-time difference is its overhead.
    Traced,
}

fn obs_args(run: &Run, obs: Obs, tag: &str) -> Vec<OsString> {
    let metrics = run.files.path(&format!("{tag}.jsonl"));
    let trace = run.files.path(&format!("{tag}.trace.json"));
    match obs {
        Obs::Off => Vec::new(),
        Obs::Metrics => os(&[&"--metrics-out", &metrics]),
        Obs::Traced => os(&[&"--metrics-out", &metrics, &"--trace-out", &trace]),
    }
}

fn with(mut args: Vec<OsString>, more: Vec<OsString>) -> Vec<OsString> {
    args.extend(more);
    args
}

fn exit_ok(p: &Finished) -> Result<(), String> {
    match p.code {
        Some(0) => Ok(()),
        Some(code) => Err(format!("exit code {code}")),
        None => Err("killed by a signal".into()),
    }
}

fn same<T: PartialEq + ?Sized>(reference: &T, actual: &T, what: &str) -> Result<(), String> {
    if reference == actual {
        Ok(())
    } else {
        Err(format!("{what} differs from the reference output"))
    }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// A `kgfd discover --out` file is well formed and every fact is a new
/// triple of the graph's labels, ranked within `top_n`. Returns the count.
fn validate_facts(bytes: &[u8], dataset: &Dataset) -> Result<usize, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "facts file is not UTF-8")?;
    let vocab = &dataset.vocab;
    let mut seen = std::collections::HashSet::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("facts line {}: {line:?}", i + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        let t = Triple {
            subject: vocab.entity(f[0]).ok_or_else(bad)?,
            relation: vocab.relation(f[1]).ok_or_else(bad)?,
            object: vocab.entity(f[2]).ok_or_else(bad)?,
        };
        let rank: f64 = f[3].parse().map_err(|_| bad())?;
        if dataset.train.contains(&t) || !(1.0..=TOP_N as f64).contains(&rank) || !seen.insert(t) {
            return Err(bad());
        }
    }
    if seen.is_empty() {
        return Err("no facts discovered".into());
    }
    Ok(seen.len())
}

/// A `kgfd train --out` file loads as a model of the entities and
/// relations of the training split at the benchmark's width.
fn validate_model(bytes: &[u8], dataset: &Dataset) -> Result<(), String> {
    let model = load_model(bytes).map_err(|e| format!("model file: {e}"))?;
    let mut entities = std::collections::HashSet::new();
    let mut relations = std::collections::HashSet::new();
    for t in dataset.train.triples() {
        entities.extend([t.subject, t.object]);
        relations.insert(t.relation);
    }
    let want = (entities.len(), relations.len(), DIM);
    let got = (model.num_entities(), model.num_relations(), model.dim());
    if got == want {
        Ok(())
    } else {
        Err(format!("model has shape {got:?}, expected {want:?}"))
    }
}

/// `kgfd eval` reports an MRR in (0, 1].
fn validate_eval(stdout: &[u8]) -> Result<(), String> {
    let mrr = String::from_utf8_lossy(stdout)
        .split_whitespace()
        .skip_while(|w| *w != "MRR")
        .nth(1)
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("no MRR in kgfd eval output")?;
    if mrr > 0.0 && mrr <= 1.0 {
        Ok(())
    } else {
        Err(format!("MRR {mrr} out of range"))
    }
}

/// The `config` entries and `pool` section of the run manifest closing a
/// `--metrics-out` file.
struct Manifest(Value);

impl Manifest {
    fn read(path: &Path) -> BenchResult<Manifest> {
        let text = String::from_utf8(read(path)?)?;
        let last = text.lines().last().ok_or("empty --metrics-out file")?;
        let line: Value = serde_json::from_str(last)?;
        let manifest = line["payload"]["Manifest"].clone();
        if manifest.is_null() {
            return Err("the last --metrics-out line is not a manifest".into());
        }
        Ok(Manifest(manifest))
    }

    fn config(&self, key: &str) -> Option<f64> {
        self.0["config"].as_array()?.iter().find_map(|e| {
            (e["key"].as_str()? == key).then(|| {
                let typed = e["value"].as_object()?;
                typed.first()?.1.as_f64()
            })?
        })
    }

    /// The pool's queue-wait p95 in µs (0 when the run dispatched no jobs).
    fn queue_wait_p95_us(&self) -> f64 {
        self.0["pool"]["queue_wait_us_p95"].as_f64().unwrap_or(0.0)
    }

    /// The command body's wall clock as the command measured it.
    fn wall_clock_s(&self) -> f64 {
        self.0["wall_clock_s"].as_f64().unwrap_or(f64::NAN)
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Runs the workload's set-up [`SETUP_REPS`] times and records `setup_s`,
/// the median repetition: generate and write the TSVs, then `kgfd train`
/// the model; for `serve-fb` also start `kgfd serve` and wait for
/// `/healthz`. The first model must fit the graph, and every repetition
/// must produce the same inputs and model. Returns the dataset and, for
/// `serve-fb`, the last repetition's server.
fn setup(run: &Run, out: &mut Outcome) -> BenchResult<(Dataset, Option<ServerProcess>)> {
    let profile = run.workload.profile(run.seed);
    let model = run.files.model();
    let epochs = run.workload.setup_epochs();
    let mut times = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    loop {
        let start = Instant::now();
        let dataset = generate(&profile)?;
        let inputs = write_tsvs(&dataset, &run.files)?;
        let trained = run.kgfd.run(&train_args(run, &model, epochs, THREADS))?;
        let server = match run.workload.op() {
            Op::Request => Some(run.kgfd.serve(&serve_args(run))?),
            _ => None,
        };
        times.push(start.elapsed().as_secs_f64());

        let bytes = std::fs::read(&model).unwrap_or_default();
        let check = exit_ok(&trained).and_then(|_| match first {
            Some((want_inputs, want_model)) => same(&want_inputs, &inputs, "generated inputs")
                .and_then(|_| same(&want_model, &digest(&bytes), "trained model")),
            None => {
                validate_model(&bytes, &dataset)?;
                first = Some((inputs, digest(&bytes)));
                Ok(())
            }
        });
        out.op("set-up", check);
        match server {
            Some(server) if times.len() < SETUP_REPS => stop_server(run, out, server)?,
            server if times.len() >= SETUP_REPS => {
                out.metric("setup_s", median(&times));
                return Ok((dataset, server));
            }
            _ => {}
        }
    }
}

fn serve_args(run: &Run) -> Vec<OsString> {
    os(&[
        &"--train",
        &run.files.train(),
        &"--model-file",
        &run.files.model(),
        &"--workers",
        &THREADS.to_string(),
        &"--rank-threads",
        &"1",
        &"--metrics-out",
        &run.files.path("serve.jsonl"),
    ])
}

/// SIGTERM, then checks the graceful drain: exit 0 and a serve manifest
/// with every worker joined and no handler panics.
fn stop_server(run: &Run, out: &mut Outcome, server: ServerProcess) -> BenchResult<()> {
    let finished = server.terminate()?;
    let check = exit_ok(&finished).and_then(|_| {
        let m = Manifest::read(&run.files.path("serve.jsonl")).map_err(|e| e.to_string())?;
        let spawned = m.config("serve.workers_spawned").unwrap_or(0.0);
        let joined = m.config("serve.workers_joined").unwrap_or(-1.0);
        let panics = m.config("serve.worker_panics").unwrap_or(-1.0);
        if spawned > 0.0 && joined == spawned && panics == 0.0 {
            Ok(())
        } else {
            Err(format!(
                "drain: {joined}/{spawned} workers joined, {panics} panics"
            ))
        }
    });
    out.op("kgfd serve drain", check);
    Ok(())
}

// ---------------------------------------------------------------------------
// CLI workloads: discover-fb-*, train-eval-wn
// ---------------------------------------------------------------------------

/// The command one operation of a CLI workload runs.
fn command(op: Op) -> &'static str {
    match op {
        Op::Eval => "kgfd eval",
        Op::Discover(_) => "kgfd discover",
        Op::Request => "an HTTP request",
    }
}

/// One operation of a CLI workload: the `kgfd` process and the output the
/// benchmark checks — the stdout of `kgfd eval`, the facts file of
/// `kgfd discover`.
fn cli_op(run: &Run, threads: usize, tag: &str, obs: Obs) -> BenchResult<(Finished, Vec<u8>)> {
    let obs = obs_args(run, obs, tag);
    let model = run.files.model();
    match run.workload.op() {
        Op::Eval => {
            let p = run.kgfd.run(&with(eval_args(run, &model, threads), obs))?;
            let stdout = p.stdout.clone().into_bytes();
            Ok((p, stdout))
        }
        Op::Discover(strategy) => {
            let facts = run.files.path(&format!("facts-{tag}.tsv"));
            let _ = std::fs::remove_file(&facts);
            let args = discover_args(run, strategy, &model, threads, &facts);
            let p = run.kgfd.run(&with(args, obs))?;
            Ok((p, std::fs::read(&facts).unwrap_or_default()))
        }
        Op::Request => Err("serve-fb has no CLI operation".into()),
    }
}

/// Checks the first operation's output on its own; later ones must repeat
/// it byte for byte.
fn validate(op: Op, output: &[u8], dataset: &Dataset) -> Result<(), String> {
    match op {
        Op::Eval => validate_eval(output),
        Op::Discover(_) => validate_facts(output, dataset).map(drop),
        Op::Request => Err("serve-fb has no CLI operation".into()),
    }
}

/// Operations run back to back for `--seconds`; `op_ms` is the median
/// process's wall time and `peak_rss_mb` the median process's peak RSS.
fn timed_cli(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (dataset, _) = setup(run, &mut out)?;
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < run.seconds {
        let (p, output) = cli_op(run, THREADS, "op", Obs::Off)?;
        let check = exit_ok(&p).and_then(|_| match &reference {
            Some(r) => same(r, &output, "output"),
            None => {
                validate(run.workload.op(), &output, &dataset)?;
                reference = Some(output);
                Ok(())
            }
        });
        out.op(command(run.workload.op()), check);
        walls.push(p.wall.as_secs_f64());
        rss.push(p.max_rss_kib as f64);
    }
    let op_s = median(&walls);
    out.metric("op_ms", op_s * 1e3);
    out.metric("peak_rss_mb", median(&rss) / 1024.0);
    out.info("ops", walls.len() as f64, "count");
    if let Op::Discover(_) = run.workload.op() {
        // One line per fact in the facts file.
        let facts = reference.map_or(0, |r| r.iter().filter(|&&b| b == b'\n').count());
        out.info("facts", facts as f64, "count");
        out.info("facts_per_hour", facts as f64 / op_s * 3600.0, "facts/h");
    }
    Ok(out)
}

/// The in-process half of a traced CLI run, separate from the binary runs
/// so it can be exercised without a `kgfd` binary.
pub struct CliReplay {
    pub replay: Replay,
    /// What the binary's operation must produce: the eval stdout or the
    /// facts file.
    pub output: Vec<u8>,
}

/// Replays a CLI workload's set-up (generate, write, train) and one
/// operation at one thread into a ledger.
pub fn replay_cli(
    workload: Workload,
    files: &Files,
    profile: &DatasetProfile,
    seed: u64,
) -> BenchResult<CliReplay> {
    let mut ledger = Ledger::new();
    let mut ranks = RankLog::default();
    let setup = ledger.begin("setup");
    let dataset = ledger.time("datasets.generate", || generate(profile))?;
    ledger.time("kg.write", || write_tsvs(&dataset, files))?;
    replay::train(
        &mut ledger,
        &files.train(),
        &files.model(),
        workload.setup_epochs(),
        seed,
    )?;
    ledger.end(setup);
    let op = ledger.begin("op");
    let (output, found) = match workload.op() {
        Op::Eval => {
            let stdout = replay::eval(
                &mut ledger,
                &files.train(),
                &files.test(),
                &files.model(),
                &mut ranks,
            )?;
            ledger.end(op);
            (stdout.into_bytes(), Discovered::default())
        }
        Op::Discover(strategy) => {
            let config = replay::discover_config(strategy, seed, 1);
            let (graph, _, found) = replay::discover_cli(
                &mut ledger,
                &files.train(),
                &files.model(),
                &config,
                &mut ranks,
            )?;
            ledger.end(op);
            (replay::render_facts(&graph.vocab, &found.facts), found)
        }
        Op::Request => return Err("serve-fb has no CLI operation".into()),
    };
    let model = read_model_file(files.model())?;
    Ok(CliReplay {
        replay: Replay::finish(ledger, ranks, found, model.as_ref()),
        output,
    })
}

/// Replays the workload, then runs the binary's operation at two threads
/// (with `--metrics-out`, then also with `--trace-out`) and at one thread;
/// each must produce the replay's output.
fn traced_cli(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let profile = run.workload.profile(run.seed);
    let r = replay_cli(run.workload, &run.files, &profile, run.seed)?;

    let mut walls = Vec::new();
    for (threads, tag, obs) in [
        (THREADS, "plain", Obs::Metrics),
        (THREADS, "traced", Obs::Traced),
        (1, "single", Obs::Off),
    ] {
        let (p, output) = cli_op(run, threads, tag, obs)?;
        let check = exit_ok(&p).and_then(|_| same(&r.output, &output, "output vs replay"));
        let what = format!("{} --threads {threads} ({tag})", command(run.workload.op()));
        out.op(&what, check);
        walls.push(p.wall.as_secs_f64());
    }
    let [plain, traced, single] = [walls[0], walls[1], walls[2]];
    let manifest = Manifest::read(&run.files.path("plain.jsonl"))?;
    scaling_metrics(
        &mut out,
        single / plain,
        manifest.queue_wait_p95_us(),
        (traced - plain) / plain,
    );
    cli_transport_metrics(&mut out, plain - manifest.wall_clock_s());
    if let Op::Discover(_) = run.workload.op() {
        out.info("facts", r.replay.found.facts.len() as f64, "count");
    }
    r.replay.report(&mut out);
    Ok(out)
}

/// Thread scaling, pool queue wait and the program's tracing overhead.
fn scaling_metrics(out: &mut Outcome, speedup: f64, pool_p95_us: f64, overhead: f64) {
    out.metric("pool.speedup_2t", speedup);
    out.metric("pool.queue_wait_p95_us", pool_p95_us);
    out.metric("obs.trace_overhead_pct", overhead * 100.0);
}

/// The transport layer of a CLI workload is the process around the
/// command: exec, start-up, argument parsing and exit — the process's wall
/// time minus the wall clock its manifest reports for the command body.
/// There is no HTTP layer.
fn cli_transport_metrics(out: &mut Outcome, overhead_s: f64) {
    out.metric("transport.overhead_ms", overhead_s * 1e3);
    out.metric("serve.cache_hit_share", 0.0);
    out.metric("serve.shed", 0.0);
}

// ---------------------------------------------------------------------------
// Replay results
// ---------------------------------------------------------------------------

/// A finished ledger with what the replay ranked and found, plus the
/// kernel replay of its distinct queries.
pub struct Replay {
    pub ledger: Ledger,
    pub ranks: RankLog,
    pub found: Discovered,
    kernel_s: f64,
    kernel_bytes: f64,
}

impl Replay {
    fn finish(ledger: Ledger, ranks: RankLog, found: Discovered, model: &dyn KgeModel) -> Replay {
        let (kernel_s, queries) = replay::kernel(model, &ranks);
        let kernel_bytes = queries as f64 * model.num_entities() as f64 * model.dim() as f64 * 4.0;
        Replay {
            ledger,
            ranks,
            found,
            kernel_s,
            kernel_bytes,
        }
    }

    /// The per-layer metrics the ledger yields, each summed over the whole
    /// replay (set-up and operation).
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let l = &self.ledger;
        let rank_s = l.total("eval.rank");
        let candidates = self.found.candidates.max(1) as f64;
        vec![
            ("kg.load_s", l.total("kg.load")),
            ("kg.known_index_s", l.total("kg.known_index")),
            ("embed.model_read_s", l.total("embed.model_read")),
            (
                "embed.train_epoch_s",
                median(&l.durations("embed.train_epoch")),
            ),
            ("core.measures_s", l.total("core.measures")),
            ("core.sampling_s", l.total("core.sampling")),
            ("core.topk_s", l.total("core.topk")),
            (
                "core.fact_yield",
                self.found.facts.len() as f64 / candidates,
            ),
            ("eval.rank_s", rank_s),
            (
                "eval.rank.dedup_ratio",
                self.ranks.total_queries as f64 / self.ranks.distinct_queries.max(1) as f64,
            ),
            (
                "eval.rank.distinct_queries_per_s",
                self.ranks.distinct_queries as f64 / rank_s,
            ),
            ("embed.kernel_s", self.kernel_s),
            (
                "embed.kernel_gb_per_s",
                self.kernel_bytes / 1e9 / self.kernel_s,
            ),
            ("ledger.coverage", l.coverage()),
        ]
    }

    fn report(self, out: &mut Outcome) {
        out.metrics.extend(self.layer_metrics());
        // Where the operation's time went (set-up is reported as a whole).
        let op = self.ledger.first("op").unwrap_or(0.0);
        out.info(
            "ledger.setup_s",
            self.ledger.first("setup").unwrap_or(0.0),
            "s",
        );
        out.info("ledger.op_s", op, "s");
        for (name, secs) in self.ledger.layers(Some("op")) {
            out.info(format!("ledger.op.{name}.share"), secs / op, "share");
        }
        out.info("embed.kernel_bytes_computed", self.kernel_bytes, "bytes");
        out.trace = Some(self.ledger.chrome_trace());
    }
}

// ---------------------------------------------------------------------------
// serve-fb
// ---------------------------------------------------------------------------

fn timed_serve(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (dataset, server) = setup(run, &mut out)?;
    let server = server.expect("serve-fb set-up starts a server");
    let mix = Mix::new(&dataset, run.seed);
    absorb_load(
        &mut out,
        &drive(server.addr(), &mix, run.seed, WARMUP_STREAM, WARMUP),
    );
    let load = drive(server.addr(), &mix, run.seed, MEASURED_STREAM, run.seconds);
    let peak_kib = server.peak_rss_kib()?;
    stop_server(run, &mut out, server)?;
    absorb_load(&mut out, &load);

    // The mean, not the median: the mix's latency is bimodal (scores and
    // cache hits ~2 ms, ranks ~10 ms, discoveries ~100 ms), and the fast
    // mode holds about half the requests, so the median jumps between the
    // modes from seed to seed.
    out.metric("op_ms", mean_ms(&load));
    out.metric("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.info("ops", load.samples.len() as f64, "count");
    out.info(
        "serve_rps",
        load.samples.len() as f64 / load.window.as_secs_f64(),
        "req/s",
    );
    endpoint_info(&mut out, &load);
    Ok(out)
}

/// Mean client latency of the 2xx requests, in ms.
fn mean_ms(load: &traffic::Load) -> f64 {
    let total: f64 = load.samples.iter().map(|s| s.latency.as_secs_f64()).sum();
    total / load.samples.len().max(1) as f64 * 1e3
}

fn absorb_load(out: &mut Outcome, load: &traffic::Load) {
    out.attempted += load.attempted;
    out.failures.extend(load.failures.iter().cloned());
}

/// The overall median and p99 with the number of samples beyond it,
/// per-endpoint medians, and the cache hits the clients saw.
fn endpoint_info(out: &mut Outcome, load: &traffic::Load) {
    let ms: Vec<f64> = load
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    out.info("serve.p50_ms", median(&ms), "ms");
    out.info("serve.p99_ms", quantile(&ms, 0.99), "ms");
    out.info("serve.samples_beyond_p99", (ms.len() / 100) as f64, "count");
    for e in Endpoint::ALL {
        let ms: Vec<f64> = load
            .samples
            .iter()
            .filter(|s| s.endpoint == e)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        out.info(format!("serve.{}_p50_ms", e.name()), median(&ms), "ms");
        out.info(
            format!("serve.{}_requests", e.name()),
            ms.len() as f64,
            "count",
        );
    }
    let hits = load.samples.iter().filter(|s| s.cache_hit).count();
    out.info(
        "serve.client_cache_hit_share",
        hits as f64 / load.samples.len().max(1) as f64,
        "share",
    );
}

/// Sums a counter or a histogram's `_sum`/`_count` over two `/metrics`
/// scrapes.
struct Scrape(String);

impl Scrape {
    fn take(addr: std::net::SocketAddr) -> BenchResult<Scrape> {
        let r = traffic::get(addr, "/metrics")?;
        if r.status != 200 {
            return Err(format!("GET /metrics: HTTP {}", r.status).into());
        }
        Ok(Scrape(String::from_utf8(r.body)?))
    }

    fn delta(&self, after: &Scrape, name: &str) -> f64 {
        traffic::prometheus_value(&after.0, name) - traffic::prometheus_value(&self.0, name)
    }

    /// Mean of histogram `name` over the interval, in its own unit.
    fn mean(&self, after: &Scrape, name: &str) -> f64 {
        self.delta(after, &format!("{name}_sum")) / self.delta(after, &format!("{name}_count"))
    }
}

fn traced_serve(run: &Run) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let files = &run.files;
    let mut ledger = Ledger::new();
    let mut ranks = RankLog::default();
    let mut found = Discovered::default();
    let setup = ledger.begin("setup");
    let dataset = ledger.time("datasets.generate", || {
        generate(&run.workload.profile(run.seed))
    })?;
    ledger.time("kg.write", || write_tsvs(&dataset, files))?;
    replay::train(
        &mut ledger,
        &files.train(),
        &files.model(),
        run.workload.setup_epochs(),
        run.seed,
    )?;
    let state = replay::serve_start(&mut ledger, &files.train(), &files.model())?;
    ledger.end(setup);
    let mix = Mix::new(&dataset, run.seed);
    let mut stream = Stream::new(run.seed.wrapping_add(SAMPLE_STREAM));
    let sample: Vec<Request> = (0..SERVE_SAMPLE).map(|_| mix.next(&mut stream)).collect();
    let queries = sample
        .iter()
        .map(|r| replay::localize(r, &dataset.vocab, &state))
        .collect::<Option<Vec<_>>>()
        .ok_or("a request label is missing from the served graph")?;
    let op = ledger.begin("op");
    let mut answers = Vec::new();
    for (r, q) in sample.iter().zip(&queries) {
        answers.push(replay::serve_request(
            &mut ledger,
            &state,
            r.endpoint,
            q,
            &mut ranks,
            &mut found,
        )?);
    }
    ledger.end(op);
    let op_secs = ledger.first("op").unwrap_or(0.0);
    let answers: Vec<String> = answers.iter().map(|a| a.text(&state.graph.vocab)).collect();

    // The same requests through the handlers' library entry points at two
    // threads, with and without the program's own span collection. The
    // sample takes ~1.5 s, so alternate three pairs and take medians.
    let direct = |state: &ServeState| -> BenchResult<f64> {
        let start = Instant::now();
        for (r, q) in sample.iter().zip(&queries) {
            replay::serve_request_direct(state, r.endpoint, q, THREADS)?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(direct(&state)?);
        kgfd_obs::enable_tracing();
        let t = direct(&state);
        kgfd_obs::collector().drain();
        kgfd_obs::disable_tracing();
        traced.push(t?);
    }
    let (plain, traced) = (median(&plain), median(&traced));
    let pool_p95 = kgfd_pool::queue_wait_summary().2.unwrap_or(0.0);
    let replay = Replay::finish(ledger, ranks, found, state.model.as_ref());
    drop(state);

    let server = run.kgfd.serve(&serve_args(run))?;
    let addr = server.addr();
    absorb_load(
        &mut out,
        &drive(addr, &mix, run.seed, WARMUP_STREAM, WARMUP),
    );
    let before = Scrape::take(addr)?;
    let load = drive(addr, &mix, run.seed, MEASURED_STREAM, run.seconds);
    let after = Scrape::take(addr)?;
    for (r, want) in sample.iter().zip(&answers) {
        let check = traffic::post(addr, r.endpoint.path(), &r.body)
            .map_err(|e| e.to_string())
            .and_then(|resp| {
                let body: Value = serde_json::from_slice(&resp.body).map_err(|e| e.to_string())?;
                let got = replay::answer_text(r.endpoint, &body).ok_or("unexpected response")?;
                same(want.as_str(), got.as_str(), "served answer vs replay")
            });
        out.op(&format!("POST {} (replay check)", r.endpoint.path()), check);
    }
    stop_server(run, &mut out, server)?;
    absorb_load(&mut out, &load);

    let client_mean_us = mean_ms(&load) * 1e3;
    let mut handler_sum = 0.0;
    let mut handler_count = 0.0;
    for e in Endpoint::ALL {
        let name = format!("serve_{}_latency_us", e.name());
        handler_sum += before.delta(&after, &format!("{name}_sum"));
        handler_count += before.delta(&after, &format!("{name}_count"));
    }
    let hits = before.delta(&after, "serve_cache_hits");
    let misses = before.delta(&after, "serve_cache_misses");

    // In-process at one thread ÷ two threads: the server itself runs its
    // handlers at `--rank-threads 1`, so only the library calls scale.
    scaling_metrics(
        &mut out,
        op_secs / plain,
        pool_p95,
        (traced - plain) / plain,
    );
    // Client latency the handlers do not account for: accept polling,
    // queue wait, HTTP parsing and serialisation.
    out.metric(
        "transport.overhead_ms",
        (client_mean_us - handler_sum / handler_count.max(1.0)) / 1e3,
    );
    out.metric("serve.cache_hit_share", hits / (hits + misses).max(1.0));
    out.metric("serve.shed", before.delta(&after, "serve_shed"));
    replay.report(&mut out);
    out.info(
        "serve.queue_wait_ms",
        before.mean(&after, "serve_queue_wait_us") / 1e3,
        "ms",
    );
    out.info(
        "serve.discover_prep_ms",
        before.mean(&after, "discover_preparation_duration_us") / 1e3,
        "ms",
    );
    endpoint_info(&mut out, &load);
    Ok(out)
}

/// The work directory of a run under the benchmark's output directory.
pub fn work_dir(out_dir: &Path, workload: Workload, seed: u64) -> PathBuf {
    out_dir.join(format!("work-{}-{seed}", workload.name()))
}
