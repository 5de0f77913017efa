//! The `kgfd` subcommands. Each returns its report as a `String` so the
//! commands are directly testable; `main` only prints.

use crate::args::{ArgError, Args};
use fact_discovery::{try_discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{
    codexl_like, fb15k237_like, generate, mini, toy_biomedical, wn18rr_like, yago310_like,
};
use kgfd_embed::{
    checkpoint_paths, read_model_file, resume_latest, write_model_file, CheckpointPolicy, KgeModel,
    LossKind, ModelKind, OptimizerKind, ResumeReport, StopSignal, TrainConfig, TrainOutcome,
    TrainSession,
};
use kgfd_eval::{evaluate_per_relation, evaluate_ranking};
use kgfd_graph_stats::{
    global_transitivity, local_triangle_counts, GraphSummary, UndirectedAdjacency,
};
use kgfd_harness::{
    figures, run_grid, run_sweep, GridOptions, GridResults, Scale, SweepOptions, SweepResults,
};
use kgfd_kg::{
    read_triples_tsv, write_triples_tsv, Dataset, KgError, Triple, TripleStore, Vocabulary,
};
use std::error::Error;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type CmdResult = Result<String, Box<dyn Error>>;

/// Usage text printed by `kgfd help` and on bad invocations.
pub const USAGE: &str = "\
kgfd — fact discovery from knowledge graph embeddings

USAGE: kgfd <COMMAND> [OPTIONS]

Each command takes the options listed with it and the OBSERVABILITY
options; any other option is a usage error.

COMMANDS:
  generate  --profile <fb15k237|wn18rr|yago310|codexl|toy> --out <DIR>
            [--scale <mini|standard>]
            write a synthetic dataset as train/valid/test TSV
  stats     --train <TSV> [--json]
            structural statistics of a graph (density, triangles)
  train     --train <TSV> --out <FILE>
            --model <transe|distmult|complex|rescal|hole|conve>
            [--dim 32] [--epochs 30] [--batch-size 256] [--lr 0.01]
            [--loss <margin|bce>] [--negatives 4] [--adversarial <TEMP>]
            [--seed 0] [--threads <N>] [--checkpoint-every <N>] [--resume]
            [--deadline <SECS>]
            train an embedding model and save it; --threads splits each
            mini-batch across N workers (results are bit-identical for
            any N; defaults to KGFD_THREADS or the CPU count, capped at 8;
            requests beyond the process worker pool are clamped with a
            warning).
            --checkpoint-every N atomically writes a checksummed training
            checkpoint next to --out every N epochs; --resume restarts from
            the newest valid checkpoint (falling back past corrupt ones) and
            the completed run is bit-identical to an uninterrupted one;
            --deadline stops gracefully at the next epoch boundary after
            SECS seconds, saving a final checkpoint (exit code 6)
  eval      --train <TSV> --test <TSV> --model-file <FILE> [--valid <TSV>]
            [--per-relation] [--threads <N>]
            filtered link-prediction metrics (MRR, Hits@k); --threads
            defaults as for train
  discover  --train <TSV> --model-file <FILE> [--strategy <ur|ef|gd|cc|ct|cs>]
            [--top-n 500] [--max-candidates 500] [--relation <LABEL>]
            [--consolidate] [--prune] [--seed 0]
            [--threads <N>] [--chunk-size 128] [--top-k <K>]
            [--heldout <TSV>] [--out <TSV>]
            discover missing facts (Algorithm 1 of the paper); --threads
            sets the candidate-ranking worker count (default as for
            train); candidates stream
            through the scorer --chunk-size at a time (results are
            bit-identical for any chunk size), and --top-k keeps only the
            K best facts per relation in a bounded heap
  fit       --train <TSV> [--name <NAME>] [--seed 0]
            infer a synthetic-generator profile from an existing graph (JSON)
  serve     --train <TSV> (--model-file <FILE> | --models-dir <DIR>)
            [--addr 127.0.0.1:8080] [--workers 4] [--max-inflight 64]
            [--deadline-ms 10000] [--cache-entries 256] [--rank-threads 2]
            [--for-secs <SECS>]
            serve POST /v1/score, /v1/rank, /v1/discover (plus /healthz,
            /metrics, /trace, /v1/models, /v1/reload) over HTTP; models
            come from `kgfd train` files (named by file stem) and
            hot-reload on demand; requests beyond --max-inflight are shed
            with 429 + Retry-After, each request gets a --deadline-ms
            budget (typed 408 on expiry), repeated queries hit an LRU
            response cache (bit-identical to the cold path), and SIGTERM
            drains gracefully: in-flight requests finish, new ones get 503
  repro     [--target <all|table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10
            |squares|grid|sweep|experiments>] [--scale <mini|standard>]
            [--threads <N>]
            regenerate the paper's tables and figures (default: all, mini):
            text reports on stdout, JSON series under target/kgfd-results/;
            `experiments` renders EXPERIMENTS.md. Each grid and sweep cell
            closes with its grid-cell or sweep-cell run manifest; --threads
            trains zoo models and ranks candidates (default as for train)
  help      this text

OBSERVABILITY (any command):
  --metrics-out <FILE>  write structured JSONL events (spans, metrics, and a
                        closing run manifest) to FILE
  --progress            human-readable progress lines on stderr (rate-limited)
  --quiet               suppress all stderr output (warnings included)
  --trace-out <FILE>    collect the hierarchical span tree and write it as
                        Chrome trace-event JSON (chrome://tracing, Perfetto)
  --flame-out <FILE>    write the span tree as collapsed-stack flamegraph
                        text (flamegraph.pl / inferno input)

EXIT CODES:
  0 success            1 runtime error       2 usage error
  3 corrupt model file (bad magic, checksum mismatch, truncation)
  4 unsupported model format version
  5 model file needs migration (format v1 or retired kind: retrain and re-save)
  6 training interrupted by --deadline; checkpoint saved, rerun with --resume
";

/// Maps an error returned by [`run`] to the `kgfd` process exit code.
///
/// A command-line mistake ([`ArgError`]) is a usage error, and persistence
/// failures get distinct codes (see the `EXIT CODES` section of [`USAGE`])
/// so scripts and CI can tell "the model file is damaged" from ordinary
/// runtime errors; the error's source chain is walked so a wrapped
/// [`ArgError`] or [`KgError`] still maps correctly.
pub fn exit_code(err: &(dyn Error + 'static)) -> i32 {
    let mut current: Option<&(dyn Error + 'static)> = Some(err);
    while let Some(e) = current {
        if e.downcast_ref::<ArgError>().is_some() {
            return 2;
        }
        if e.downcast_ref::<Interrupted>().is_some() {
            return 6;
        }
        if let Some(kg) = e.downcast_ref::<KgError>() {
            return match kg {
                KgError::Corrupt(_) => 3,
                KgError::UnsupportedVersion { .. } => 4,
                KgError::Migration(_) => 5,
                _ => 1,
            };
        }
        current = e.source();
    }
    1
}

/// Training stopped cooperatively (the `--deadline` expired) before all
/// epochs ran. Not a failure — the final checkpoint is on disk and
/// `--resume` continues bit-identically — but the model at `--out` was NOT
/// (re)written, so the condition surfaces as exit code 6 rather than 0.
#[derive(Debug)]
pub struct Interrupted {
    /// Epochs completed before the stop was honoured.
    pub epochs_done: usize,
    /// Checkpoint holding the interrupted state, when one could be written.
    pub checkpoint: Option<PathBuf>,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training interrupted after {} epoch(s)",
            self.epochs_done
        )?;
        match &self.checkpoint {
            Some(path) => write!(
                f,
                "; checkpoint saved to {} — rerun with --resume to continue",
                path.display()
            ),
            None => write!(f, "; no checkpoint was written"),
        }
    }
}

impl Error for Interrupted {}

/// Installs the observer the `--metrics-out` / `--progress` / `--quiet`
/// flags ask for; the guard restores the previous observer when dropped.
fn install_observer(args: &Args) -> Result<kgfd_obs::ScopedObserver, Box<dyn Error>> {
    let stderr: Option<Arc<dyn kgfd_obs::Observer>> = if args.flag("quiet") {
        None
    } else if args.flag("progress") {
        Some(Arc::new(kgfd_obs::StderrProgress::new()))
    } else {
        Some(Arc::new(kgfd_obs::StderrProgress::warnings_only()))
    };
    let sink: Option<Arc<dyn kgfd_obs::Observer>> = match args.get("metrics-out") {
        Some(path) => Some(Arc::new(
            kgfd_obs::JsonlSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        // A bare trailing `--metrics-out` parses as a flag; reject it rather
        // than silently dropping the sink.
        None if args.flag("metrics-out") => {
            return Err("--metrics-out needs a file argument".into())
        }
        None => None,
    };
    let observers: Vec<Arc<dyn kgfd_obs::Observer>> = stderr.into_iter().chain(sink).collect();
    let observer: Arc<dyn kgfd_obs::Observer> = match observers.len() {
        0 => Arc::new(kgfd_obs::NullObserver),
        1 => observers.into_iter().next().expect("one observer"),
        _ => Arc::new(kgfd_obs::Fanout::new(observers)),
    };
    Ok(kgfd_obs::scoped(observer))
}

/// An option that requires a value: `Some(value)` when given, `None` when
/// absent, an error when present as a bare trailing flag.
fn optional_value(args: &Args, key: &'static str) -> Result<Option<String>, Box<dyn Error>> {
    match args.get(key) {
        Some(v) => Ok(Some(v.to_string())),
        None if args.flag(key) => Err(format!("--{key} needs an argument").into()),
        None => Ok(None),
    }
}

/// The dataset shape of a training graph, for run manifests.
fn dataset_shape(store: &TripleStore) -> kgfd_obs::DatasetShape {
    kgfd_obs::DatasetShape {
        entities: store.num_entities() as u64,
        relations: store.num_relations() as u64,
        triples: store.len() as u64,
    }
}

/// The options every command accepts: where a run reports (the
/// `OBSERVABILITY` section of [`USAGE`]).
const SHARED_OPTIONS: &[&str] = &["metrics-out", "progress", "quiet", "trace-out", "flame-out"];

/// A command: its name, its handler, and the options it reads besides
/// [`SHARED_OPTIONS`].
type Command = (
    &'static str,
    fn(&Args) -> CmdResult,
    &'static [&'static str],
);

/// Every command; [`USAGE`] lists exactly these, with these options.
const COMMANDS: &[Command] = &[
    ("generate", cmd_generate, &["profile", "out", "scale"]),
    ("stats", cmd_stats, &["train", "json"]),
    (
        "train",
        cmd_train,
        &[
            "train",
            "out",
            "model",
            "dim",
            "epochs",
            "batch-size",
            "lr",
            "loss",
            "negatives",
            "adversarial",
            "seed",
            "threads",
            "checkpoint-every",
            "resume",
            "deadline",
        ],
    ),
    (
        "eval",
        cmd_eval,
        &[
            "train",
            "test",
            "model-file",
            "valid",
            "per-relation",
            "threads",
        ],
    ),
    (
        "discover",
        cmd_discover,
        &[
            "train",
            "model-file",
            "strategy",
            "top-n",
            "max-candidates",
            "relation",
            "consolidate",
            "prune",
            "seed",
            "threads",
            "chunk-size",
            "top-k",
            "heldout",
            "out",
        ],
    ),
    ("fit", cmd_fit, &["train", "name", "seed"]),
    (
        "serve",
        cmd_serve,
        &[
            "train",
            "model-file",
            "models-dir",
            "addr",
            "workers",
            "max-inflight",
            "deadline-ms",
            "cache-entries",
            "rank-threads",
            "for-secs",
        ],
    ),
    ("repro", cmd_repro, &["target", "scale", "threads"]),
    ("help", |_| Ok(USAGE.to_string()), &[]),
];

/// Dispatches a parsed command line. An unknown command, or an option the
/// command does not read, is refused before any work starts.
pub fn run(args: &Args) -> CmdResult {
    let command = args.command.as_deref().unwrap_or("help");
    let &(_, handler, options) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .ok_or_else(|| unknown("command", command))?;
    if let Some(key) = args
        .keys()
        .find(|key| !options.contains(key) && !SHARED_OPTIONS.contains(key))
    {
        return Err(unknown("option", &format!("--{key}")));
    }
    let _observer = install_observer(args)?;
    // The phase labels the pool's per-phase utilization and `kgfd serve`'s
    // `/healthz`.
    kgfd_obs::set_phase(command);
    let trace_out = optional_value(args, "trace-out")?;
    let flame_out = optional_value(args, "flame-out")?;
    if trace_out.is_some() || flame_out.is_some() {
        kgfd_obs::enable_tracing();
    }
    // One trace-only root per invocation: everything the command opens
    // (discover.total, training epochs, ...) nests under it, so trace
    // exports have a single root whose duration is the run itself.
    let root_span = kgfd_obs::Span::with_fields_traced(
        "cli.command",
        vec![kgfd_obs::Field::new("command", command)],
    );
    let result = handler(args);
    drop(root_span);
    // After the command, failed or not, so a failing run still leaves its
    // partial trace behind.
    kgfd_obs::finish_tracing(trace_out.as_deref(), flame_out.as_deref())?;
    result
}

fn load_graph(path: &str) -> Result<(Vocabulary, Vec<Triple>), Box<dyn Error>> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut vocab = Vocabulary::new();
    let triples = read_triples_tsv(file, &mut vocab)?;
    Ok((vocab, triples))
}

/// Reads a TSV whose labels must already exist in `vocab` (held-out splits
/// against a training vocabulary).
fn load_with_vocab(path: &str, vocab: &Vocabulary) -> Result<Vec<Triple>, Box<dyn Error>> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut scratch = Vocabulary::new();
    let raw = read_triples_tsv(file, &mut scratch)?;
    raw.into_iter()
        .map(|t| {
            let lookup_e = |id| -> Result<_, Box<dyn Error>> {
                let label = scratch.entity_label(id).expect("interned");
                vocab
                    .entity(label)
                    .ok_or_else(|| format!("{path}: entity {label:?} not in training graph").into())
            };
            let s = lookup_e(t.subject)?;
            let o = lookup_e(t.object)?;
            let rl = scratch.relation_label(t.relation).expect("interned");
            let r = vocab
                .relation(rl)
                .ok_or_else(|| format!("{path}: relation {rl:?} not in training graph"))?;
            Ok(Triple {
                subject: s,
                relation: r,
                object: o,
            })
        })
        .collect()
}

fn store_of(vocab: &Vocabulary, triples: Vec<Triple>) -> Result<TripleStore, KgError> {
    TripleStore::new(vocab.num_entities(), vocab.num_relations(), triples)
}

/// The usage error for a `name` outside the fixed set of `what`s.
fn unknown(what: &'static str, name: &str) -> Box<dyn Error> {
    Box::new(ArgError::Unknown {
        what,
        name: name.into(),
    })
}

fn parse_model(name: &str) -> Result<ModelKind, Box<dyn Error>> {
    ModelKind::from_name(name).ok_or_else(|| unknown("model", name))
}

fn parse_strategy(name: &str) -> Result<StrategyKind, Box<dyn Error>> {
    StrategyKind::from_name(name).ok_or_else(|| unknown("strategy", name))
}

fn cmd_generate(args: &Args) -> CmdResult {
    let out = Path::new(args.required("out")?).to_path_buf();
    let profile_name = args.required("profile")?;
    let scale = args.get("scale").unwrap_or("standard");
    let dataset: Dataset = if profile_name == "toy" {
        toy_biomedical()
    } else {
        let base = match profile_name {
            "fb15k237" => fb15k237_like(),
            "wn18rr" => wn18rr_like(),
            "yago310" => yago310_like(),
            "codexl" => codexl_like(),
            other => return Err(unknown("profile", other)),
        };
        let profile = match scale {
            "standard" => base,
            "mini" => mini(&base),
            other => return Err(unknown("scale", other)),
        };
        generate(&profile)?
    };
    std::fs::create_dir_all(&out)?;
    for (name, triples) in [
        ("train.tsv", dataset.train.triples()),
        ("valid.tsv", &dataset.valid[..]),
        ("test.tsv", &dataset.test[..]),
    ] {
        let file = File::create(out.join(name))?;
        write_triples_tsv(file, triples, &dataset.vocab)?;
    }
    let m = dataset.metadata();
    Ok(format!(
        "wrote {} to {}\n  train {} / valid {} / test {} triples, {} entities, {} relations",
        m.name,
        out.display(),
        m.training,
        m.validation,
        m.test,
        m.entities,
        m.relations
    ))
}

fn cmd_stats(args: &Args) -> CmdResult {
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let summary = GraphSummary::compute(&store);
    let adj = UndirectedAdjacency::from_store(&store);
    let triangles = local_triangle_counts(&adj);
    let transitivity = global_transitivity(&adj, &triangles);
    if args.flag("json") {
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "summary": summary,
            "transitivity": transitivity,
        }))?);
    }
    Ok(format!(
        "entities            {}\n\
         relations           {}\n\
         triples             {}\n\
         simple edges        {}\n\
         triples/entity      {:.2}\n\
         avg clustering      {:.4}\n\
         transitivity        {:.4}\n\
         triangles           {}\n\
         mean degree         {:.2} (max {})\n\
         complement size     {}",
        summary.num_entities,
        summary.num_relations,
        summary.num_triples,
        summary.simple_edges,
        summary.avg_triples_per_entity,
        summary.avg_clustering,
        transitivity,
        summary.total_triangles,
        summary.mean_degree,
        summary.max_degree,
        store.complement_size(),
    ))
}

/// The `--threads` value (default [`kgfd_pool::default_threads`]) through
/// the pool's one policy: requests beyond the pool's width are clamped with
/// a warning event. Zero is a usage error.
fn threads_arg(args: &Args) -> Result<usize, ArgError> {
    let requested = args.positive_or("threads", kgfd_pool::default_threads())?;
    Ok(kgfd_pool::resolve_threads(requested).expect("a positive thread count is never refused"))
}

/// Renders a loss value for reports: `NaN` (a zero-epoch run) becomes
/// `"n/a"` instead of leaking NaN into text or JSON output.
fn render_loss(loss: f64) -> String {
    if loss.is_finite() {
        format!("{loss:.4}")
    } else {
        "n/a".to_string()
    }
}

fn cmd_train(args: &Args) -> CmdResult {
    let start = Instant::now();
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let kind = parse_model(args.required("model")?)?;
    let loss = match args.get("loss").unwrap_or("bce") {
        "margin" => LossKind::MarginRanking { margin: 1.0 },
        "bce" => LossKind::BinaryCrossEntropy,
        other => return Err(unknown("loss", other)),
    };
    let config = TrainConfig {
        dim: args.positive_or("dim", 32)?,
        epochs: args.parse_or("epochs", 30, "integer")?,
        batch_size: args.positive_or("batch-size", 256)?,
        negatives: args.parse_or("negatives", 4, "integer")?,
        loss,
        optimizer: OptimizerKind::Adam {
            lr: args.parse_or("lr", 0.01, "number")?,
        },
        filter_negatives: true,
        normalize_entities: kind == ModelKind::TransE,
        adversarial_temperature: args.parse_opt("adversarial", "number")?,
        seed: args.parse_or("seed", 0, "integer")?,
        threads: threads_arg(args)?,
    };
    config
        .validate()
        .map_err(|e| format!("invalid training configuration: {e}"))?;

    let checkpoint_every: usize = args.parse_or("checkpoint-every", 0, "integer")?;
    let resume = args.flag("resume");
    let deadline_s: Option<f64> = match optional_value(args, "deadline")? {
        Some(raw) => Some(raw.parse().map_err(|_| ArgError::Invalid {
            key: "deadline".into(),
            value: raw,
            expected: "number of seconds",
        })?),
        None => None,
    };
    let checkpointing = checkpoint_every > 0 || resume || deadline_s.is_some();
    let out = args.required("out")?;

    // Checkpoint flags only add a policy and a stop signal; without them
    // this is the same session run to completion.
    let (mut session, report) = if resume {
        resume_latest(kind, &store, &config, Path::new(out))?
    } else {
        (
            TrainSession::new(kind, &store, &config)
                .map_err(|e| format!("cannot start training: {e}"))?,
            ResumeReport::default(),
        )
    };
    let resumed_from = report
        .resumed_from
        .as_ref()
        .map(|p| p.display().to_string());
    let policy = checkpointing.then(|| CheckpointPolicy::new(PathBuf::from(out), checkpoint_every));
    let stop = deadline_s.map(|s| StopSignal::with_deadline(Duration::from_secs_f64(s)));
    let outcome = session.run(policy.as_ref(), stop.as_ref())?;
    if let TrainOutcome::Interrupted {
        epochs_done,
        checkpoint,
    } = outcome
    {
        emit_train_manifest(
            kind,
            &config,
            &store,
            start,
            None,
            resumed_from,
            checkpoint_every,
            Some(epochs_done),
        );
        return Err(Interrupted {
            epochs_done,
            checkpoint,
        }
        .into());
    }
    let (model, stats) = session.into_model();
    let final_loss = stats.final_loss();

    // Atomic temp-file + rename: an interrupted `kgfd train` can never
    // leave a partial (and thus unloadable) model file at --out.
    write_model_file(out, model.as_ref())?;
    if checkpointing {
        // The run completed and the model is durable — the intermediate
        // checkpoints have served their purpose.
        for (_, path) in checkpoint_paths(Path::new(out)) {
            let _ = std::fs::remove_file(path);
        }
    }

    emit_train_manifest(
        kind,
        &config,
        &store,
        start,
        Some(final_loss),
        resumed_from,
        checkpoint_every,
        None,
    );

    Ok(format!(
        "trained {kind} (dim {}, {} parameters) on {} triples\n\
         final training loss {} over {} epochs\nsaved to {out}",
        config.dim,
        model.params().num_parameters(),
        store.len(),
        render_loss(final_loss),
        config.epochs,
    ))
}

/// Emits the `train` RunManifest — shared by the completed and interrupted
/// paths so an interrupted run still leaves a machine-readable record (with
/// `epochs_done` showing where it stopped).
#[allow(clippy::too_many_arguments)]
fn emit_train_manifest(
    kind: ModelKind,
    config: &TrainConfig,
    store: &TripleStore,
    start: Instant,
    final_loss: Option<f64>,
    resumed_from: Option<String>,
    checkpoint_every: usize,
    interrupted_at: Option<usize>,
) {
    let mut manifest = kgfd_obs::RunManifest::new("train");
    manifest.model = kind.to_string();
    manifest.seed = config.seed;
    manifest.dataset = dataset_shape(store);
    manifest.wall_clock_s = start.elapsed().as_secs_f64();
    manifest.resumed_from = resumed_from;
    manifest = manifest
        .with_config("dim", config.dim)
        .with_config("epochs", config.epochs)
        .with_config("batch_size", config.batch_size)
        .with_config("negatives", config.negatives)
        .with_config("threads", config.threads);
    if checkpoint_every > 0 {
        manifest = manifest.with_config("checkpoint_every", checkpoint_every);
    }
    if let Some(epochs_done) = interrupted_at {
        manifest = manifest
            .with_config("interrupted", true)
            .with_config("epochs_done", epochs_done);
    }
    if let Some(loss) = final_loss {
        // NaN (zero-epoch run) is reported as text, never NaN-in-JSON.
        manifest = if loss.is_finite() {
            manifest.with_config("final_loss", loss)
        } else {
            manifest.with_config("final_loss", render_loss(loss))
        };
    }
    manifest.emit();
}

fn load_model_file(path: &str) -> Result<Box<dyn KgeModel>, Box<dyn Error>> {
    // Keep the typed `KgError` intact (rather than flattening to a string)
    // so `exit_code` can map corruption / version skew / migration failures
    // to their distinct process exit codes.
    Ok(read_model_file(path)?)
}

fn check_model_matches(model: &dyn KgeModel, store: &TripleStore) -> Result<(), Box<dyn Error>> {
    if model.num_entities() != store.num_entities()
        || model.num_relations() != store.num_relations()
    {
        return Err(format!(
            "model shape ({} entities, {} relations) does not match the graph \
             ({} entities, {} relations) — was it trained on this --train file?",
            model.num_entities(),
            model.num_relations(),
            store.num_entities(),
            store.num_relations()
        )
        .into());
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> CmdResult {
    let start = Instant::now();
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let test = load_with_vocab(args.required("test")?, &vocab)?;
    let valid = match args.get("valid") {
        Some(path) => load_with_vocab(path, &vocab)?,
        None => Vec::new(),
    };
    let model = load_model_file(args.required("model-file")?)?;
    check_model_matches(model.as_ref(), &store)?;

    let threads = threads_arg(args)?;
    let known = kgfd_kg::KnownTriples::from_slices([store.triples(), &valid[..], &test[..]]);
    let summary = evaluate_ranking(model.as_ref(), &test, Some(&known), threads);
    let mut out = format!(
        "filtered link prediction on {} test triples ({}):\n{summary}",
        test.len(),
        model.kind(),
    );
    if args.flag("per-relation") {
        out.push_str("\nper relation:\n");
        for p in evaluate_per_relation(model.as_ref(), &test, Some(&known), threads) {
            out.push_str(&format!(
                "  {:<24} {}\n",
                vocab.relation_label(p.relation).unwrap_or("?"),
                p.summary
            ));
        }
    }

    let mut manifest = kgfd_obs::RunManifest::new("eval");
    manifest.model = model.kind().to_string();
    manifest.dataset = dataset_shape(&store);
    manifest.wall_clock_s = start.elapsed().as_secs_f64();
    manifest
        .with_config("test_triples", test.len())
        .with_config("mrr", summary.mrr)
        .with_config("embed.kernel", kgfd_embed::kernel_path())
        .with_config(
            "eval.rank.dedup_ratio",
            kgfd_obs::gauge("eval.rank.dedup_ratio").get(),
        )
        .emit();

    Ok(out)
}

fn cmd_fit(args: &Args) -> CmdResult {
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let name = args.get("name").unwrap_or("fitted");
    let seed = args.parse_or("seed", 0, "integer")?;
    let profile = kgfd_datasets::fit_profile(name, &store, seed);
    Ok(serde_json::to_string_pretty(&profile)?)
}

fn cmd_discover(args: &Args) -> CmdResult {
    let start = Instant::now();
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let model = load_model_file(args.required("model-file")?)?;
    check_model_matches(model.as_ref(), &store)?;

    let relations = match args.get("relation") {
        Some(label) => Some(vec![vocab
            .relation(label)
            .ok_or_else(|| format!("relation {label:?} not in the graph"))?]),
        None => None,
    };
    let config = DiscoveryConfig {
        strategy: parse_strategy(args.get("strategy").unwrap_or("ef"))?,
        top_n: args.parse_or("top-n", 500, "integer")?,
        max_candidates: args.parse_or("max-candidates", 500, "integer")?,
        relations,
        consolidate_sides: args.flag("consolidate"),
        prune_with_rules: args.flag("prune"),
        seed: args.parse_or("seed", 0, "integer")?,
        threads: threads_arg(args)?,
        chunk_size: args.positive_or("chunk-size", DiscoveryConfig::default().chunk_size)?,
        top_k: args.parse_opt("top-k", "integer")?,
        ..DiscoveryConfig::default()
    };
    let report = try_discover_facts(model.as_ref(), &store, &config)?;

    let mut facts = report.facts.clone();
    facts.sort_by(|a, b| a.rank.total_cmp(&b.rank));
    let mut lines = String::new();
    for f in &facts {
        lines.push_str(&format!(
            "{}\t{}\t{}\t{:.1}\n",
            vocab.entity_label(f.triple.subject).unwrap_or("?"),
            vocab.relation_label(f.triple.relation).unwrap_or("?"),
            vocab.entity_label(f.triple.object).unwrap_or("?"),
            f.rank
        ));
    }
    if let Some(out) = args.get("out") {
        std::fs::write(out, &lines)?;
    }
    let mut result = format!(
        "{}: discovered {} facts from {} candidates in {:.2?} \
         (MRR {:.4}, {:.0} facts/hour)\n",
        config.strategy,
        report.facts.len(),
        report.candidates_generated(),
        report.total,
        report.mrr(),
        report.facts_per_hour(),
    );
    let pruned: usize = report.per_relation.iter().map(|r| r.pruned).sum();
    if pruned > 0 {
        result.push_str(&format!("{pruned} candidates pruned by rules\n"));
    }
    if let Some(heldout_path) = args.get("heldout") {
        let held_out = load_with_vocab(heldout_path, &vocab)?;
        let fact_triples: Vec<kgfd_kg::Triple> = report.facts.iter().map(|f| f.triple).collect();
        let h = kgfd_eval::score_against_held_out(&fact_triples, &held_out, &store);
        result.push_str(&format!(
            "held-out check: {}/{} truths rediscovered (recall {:.3}, \
             reachable-recall {:.3}, precision lower bound {:.3})\n",
            h.hits, h.held_out, h.recall, h.reachable_recall, h.precision_lower_bound
        ));
    }
    match args.get("out") {
        Some(out) => result.push_str(&format!("facts written to {out}")),
        None => {
            result.push_str("subject\trelation\tobject\trank\n");
            result.push_str(&lines);
        }
    }

    let mut manifest = kgfd_obs::RunManifest::new("discover");
    manifest.strategy = config.strategy.to_string();
    manifest.model = model.kind().to_string();
    manifest.seed = config.seed;
    manifest.dataset = dataset_shape(&store);
    manifest.wall_clock_s = start.elapsed().as_secs_f64();
    manifest
        .with_config("top_n", config.top_n)
        .with_config("max_candidates", config.max_candidates)
        .with_config("consolidate_sides", config.consolidate_sides)
        .with_config("prune_with_rules", config.prune_with_rules)
        .with_config("chunk_size", config.chunk_size)
        .with_config("top_k", config.top_k.map(|k| k as u64).unwrap_or(0))
        .with_config("facts", report.facts.len())
        .with_config("embed.kernel", kgfd_embed::kernel_path())
        .with_config(
            "eval.rank.dedup_ratio",
            kgfd_obs::gauge("eval.rank.dedup_ratio").get(),
        )
        .with_config(
            "discover.stream.peak_buffer",
            kgfd_obs::gauge("discover.stream.peak_buffer").get(),
        )
        .with_config(
            "discover.stream.chunks",
            kgfd_obs::counter("discover.stream.chunks").get(),
        )
        .with_config(
            "discover.cache.measures_hit",
            kgfd_obs::counter("discover.cache.measures_hit").get(),
        )
        .with_config(
            "discover.cache.measures_miss",
            kgfd_obs::counter("discover.cache.measures_miss").get(),
        )
        .emit();

    Ok(result)
}

/// `kgfd serve` — the online serving mode: load models, answer HTTP
/// queries until SIGTERM (or `--for-secs` expires), drain, report.
fn cmd_serve(args: &Args) -> CmdResult {
    let start = Instant::now();
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let shape = dataset_shape(&store);
    let registry = Arc::new(kgfd_serve::ModelRegistry::new(
        kgfd_serve::GraphContext::new(vocab, store),
    ));

    // Models: a single --model-file (named by its stem) and/or every
    // regular file in --models-dir. Loads are validated against the graph.
    if let Some(path) = args.get("model-file") {
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a model name from {path:?}"))?
            .to_string();
        registry.load(&name, path)?;
    }
    if let Some(dir) = args.get("models-dir") {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {dir}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        entries.sort(); // deterministic load order (and generation numbers)
        for path in entries {
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            registry.load(name, &path)?;
        }
    }
    if registry.is_empty() {
        return Err("no models to serve: provide --model-file and/or --models-dir".into());
    }

    let config = kgfd_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: args.positive_or("workers", 4)?,
        max_inflight: args.positive_or("max-inflight", 64)?,
        deadline_ms: args.parse_or("deadline-ms", 10_000u64, "integer")?,
        cache_entries: args.parse_or("cache-entries", 256usize, "integer")?,
        rank_threads: args.positive_or("rank-threads", 2)?,
        ..kgfd_serve::ServeConfig::default()
    };
    let for_secs: Option<u64> = args.parse_opt("for-secs", "integer")?;

    kgfd_serve::install_termination_handler();
    let server = kgfd_serve::Server::start(config.clone(), Arc::clone(&registry))
        .map_err(|e| format!("cannot serve on {}: {e}", config.addr))?;
    // Announce the bound address, so an ephemeral port is usable. A closed
    // stderr loses the line but does not stop the server.
    if !args.flag("quiet") {
        let _ = writeln!(
            std::io::stderr(),
            "serving kgfd on http://{}",
            server.local_addr()
        );
    }

    loop {
        if kgfd_serve::termination_requested() {
            break;
        }
        if let Some(secs) = for_secs {
            if start.elapsed() >= Duration::from_secs(secs) {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.shutdown();

    let mut manifest = kgfd_obs::RunManifest::new("serve");
    manifest.dataset = shape;
    manifest.wall_clock_s = start.elapsed().as_secs_f64();
    manifest
        .with_config("serve.workers", config.workers)
        .with_config("serve.max_inflight", config.max_inflight)
        .with_config("serve.deadline_ms", config.deadline_ms)
        .with_config("serve.cache_entries", config.cache_entries)
        .with_config("serve.rank_threads", config.rank_threads)
        .with_config("serve.models", registry.len())
        .with_config("serve.requests", stats.requests)
        .with_config("serve.responses_2xx", stats.responses_2xx)
        .with_config("serve.responses_4xx", stats.responses_4xx)
        .with_config("serve.responses_5xx", stats.responses_5xx)
        .with_config("serve.shed", stats.shed)
        .with_config("serve.deadline_expired", stats.deadline_expired)
        .with_config("serve.cache_hits", stats.cache_hits)
        .with_config("serve.cache_misses", stats.cache_misses)
        .with_config("serve.worker_panics", stats.worker_panics)
        .with_config("serve.workers_spawned", stats.workers_spawned)
        .with_config("serve.workers_joined", stats.workers_joined)
        .with_config("embed.kernel", kgfd_embed::kernel_path())
        .emit();

    Ok(format!(
        "served {} requests in {:.2?} ({} 2xx, {} 4xx, {} 5xx; {} shed, {} deadline-expired)\n\
         cache: {} hits, {} misses\n\
         drained cleanly: {}/{} workers joined, {} handler panics",
        stats.requests,
        start.elapsed(),
        stats.responses_2xx,
        stats.responses_4xx,
        stats.responses_5xx,
        stats.shed,
        stats.deadline_expired,
        stats.cache_hits,
        stats.cache_misses,
        stats.workers_joined,
        stats.workers_spawned,
        stats.worker_panics,
    ))
}

/// `kgfd repro` — regenerates the paper's tables and figures (DESIGN.md
/// §4): each section of the `--target` closes with a rule of `=`.
fn cmd_repro(args: &Args) -> CmdResult {
    let target = args.get("target").unwrap_or("all");
    let scale = match args.get("scale").unwrap_or("mini") {
        "mini" => Scale::Mini,
        "standard" => Scale::Standard,
        other => return Err(unknown("scale", other)),
    };
    let threads = threads_arg(args)?;
    let want = |name: &str| target == "all" || target == name;
    // The figures drawn from one shared grid or sweep run; the targets
    // `grid` and `sweep` select all of a runner's figures.
    type Figure<R> = (&'static str, fn(&R) -> String);
    let grid_figures: [Figure<GridResults>; 3] = [
        ("fig2", figures::fig2_runtime::render),
        ("fig4", figures::fig4_mrr::render),
        ("fig6", figures::fig6_efficiency::render),
    ];
    let grid_figures: Vec<_> = grid_figures
        .into_iter()
        .filter(|(name, _)| want(name) || target == "grid")
        .collect();
    let sweep_figures: [Figure<SweepResults>; 4] = [
        ("fig7", figures::fig7_runtime_sweep::render),
        ("fig8", figures::fig8_quality_sweep::render),
        ("fig9", figures::fig9_topn_efficiency::render),
        ("fig10", figures::fig10_candidates_efficiency::render),
    ];
    let sweep_figures: Vec<_> = sweep_figures
        .into_iter()
        .filter(|(name, _)| want(name) || target == "sweep")
        .collect();
    let grid = (!grid_figures.is_empty() || want("experiments")).then(|| {
        let options = GridOptions {
            threads,
            ..GridOptions::for_scale(scale)
        };
        run_grid(scale, &options)
    });
    let sweep = (!sweep_figures.is_empty() || want("experiments")).then(|| {
        let options = SweepOptions {
            threads,
            ..SweepOptions::for_scale(scale)
        };
        run_sweep(scale, &options)
    });

    let mut sections: Vec<String> = Vec::new();
    if want("table1") {
        sections.push(figures::table1_datasets::render(scale));
    }
    if let Some(grid) = &grid {
        sections.extend(grid_figures.iter().map(|(_, render)| render(grid)));
    }
    if want("fig3") {
        sections.push(figures::fig3_clustering_dist::render(scale));
    }
    if want("fig5") {
        sections.push(figures::fig5_node_profiles::render(scale));
    }
    if let Some(sweep) = &sweep {
        sections.extend(sweep_figures.iter().map(|(_, render)| render(sweep)));
    }
    if want("squares") {
        sections.push(figures::squares_cost::render(scale, threads));
    }
    if let (true, Some(grid), Some(sweep)) = (want("experiments"), &grid, &sweep) {
        sections.push(kgfd_harness::render_experiments_md(
            scale, grid, sweep, threads,
        ));
    }

    // Every target renders at least one section.
    if sections.is_empty() {
        return Err(unknown("target", target));
    }
    let rule = "=".repeat(80);
    Ok(sections
        .iter()
        .map(|section| format!("{section}\n{rule}"))
        .collect::<Vec<_>>()
        .join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--options` a piece of text names.
    fn options_in(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    /// The part of `USAGE` between two headings.
    fn section(from: &str, to: &str) -> &'static str {
        let start = USAGE.find(from).expect(from) + from.len();
        let end = start + USAGE[start..].find(to).expect(to);
        &USAGE[start..end]
    }

    #[test]
    fn usage_lists_exactly_the_options_each_command_accepts() {
        // A command's block starts at its name, indented by two spaces.
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in section("COMMANDS:\n", "\nOBSERVABILITY").lines() {
            if !line.starts_with("   ") {
                let name = line.split_whitespace().next().expect("a command name");
                blocks.push((name, String::new()));
            }
            let (_, text) = blocks.last_mut().expect("a command block");
            text.push_str(line);
            text.push('\n');
        }
        assert_eq!(
            blocks.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            COMMANDS.iter().map(|(name, ..)| *name).collect::<Vec<_>>(),
            "USAGE lists every command, in dispatch order"
        );
        for ((name, text), (_, _, options)) in blocks.iter().zip(COMMANDS) {
            assert_eq!(
                options_in(text),
                options.iter().copied().collect(),
                "kgfd {name}"
            );
        }
        assert_eq!(
            options_in(section("OBSERVABILITY (any command):\n", "\nEXIT CODES")),
            SHARED_OPTIONS.iter().copied().collect(),
            "the options every command accepts"
        );
    }
}
