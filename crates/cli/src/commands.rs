//! The `kgfd` subcommands. Each returns its report as a `String` so the
//! commands are directly testable; `main` only prints.

use crate::args::{ArgError, Args};
use fact_discovery::{try_discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{
    codexl_like, fb15k237_like, find_inverse_pairs, generate, mini, toy_biomedical, wn18rr_like,
    yago310_like,
};
use kgfd_embed::{
    checkpoint_paths, read_model_file, resume_latest, write_model_file, CheckpointPolicy, KgeModel,
    LossKind, ModelKind, OptimizerKind, ResumeReport, StopSignal, TrainConfig, TrainOutcome,
    TrainSession,
};
use kgfd_eval::{
    evaluate_per_relation, evaluate_ranking, train_with_early_stopping, EarlyStopping,
};
use kgfd_graph_stats::{
    connected_components, global_transitivity, local_triangle_counts, GraphSummary,
    UndirectedAdjacency,
};
use kgfd_kg::{
    read_triples_tsv, write_triples_tsv, Dataset, KgError, Triple, TripleStore, Vocabulary,
};
use std::error::Error;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type CmdResult = Result<String, Box<dyn Error>>;

/// Usage text printed by `kgfd help` and on bad invocations.
pub const USAGE: &str = "\
kgfd — fact discovery from knowledge graph embeddings

USAGE: kgfd <COMMAND> [OPTIONS]

COMMANDS:
  generate  --profile <fb15k237|wn18rr|yago310|codexl|toy> --out <DIR>
            [--scale <mini|standard>]
            write a synthetic dataset as train/valid/test TSV
  stats     --train <TSV>
            structural statistics of a graph (density, triangles, components)
  train     --train <TSV> --out <FILE>
            --model <transe|distmult|complex|rescal|hole|conve>
            [--dim 32] [--epochs 30] [--lr 0.01] [--loss <margin|bce>]
            [--negatives 4] [--adversarial <TEMP>] [--seed 0]
            [--threads <N>] [--valid <TSV> --early-stop]
            [--checkpoint-every <N>] [--resume] [--deadline <SECS>]
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
            [--per-relation] [--threads 4]
            filtered link-prediction metrics (MRR, Hits@k)
  discover  --train <TSV> --model-file <FILE> [--strategy <ur|ef|gd|cc|ct|cs|pr>]
            [--top-n 500] [--max-candidates 500] [--relation <LABEL>]
            [--explore <EPS>] [--consolidate] [--prune] [--seed 0]
            [--threads <N>] [--chunk-size 128] [--top-k <K>]
            [--heldout <TSV>] [--out <TSV>]
            discover missing facts (Algorithm 1 of the paper); --threads
            sets the candidate-ranking worker count; candidates stream
            through the scorer --chunk-size at a time (results are
            bit-identical for any chunk size), and --top-k keeps only the
            K best facts per relation in a bounded heap
  audit-inverse --train <TSV> [--threshold 0.8]
            detect inverse-relation test-leakage pairs
  fit       --train <TSV> [--name <NAME>] [--seed 0]
            infer a synthetic-generator profile from an existing graph (JSON)
  complete  --train <TSV> --model-file <FILE> --relation <LABEL>
            (--subject <LABEL> | --object <LABEL>) [--top 10]
            answer a link-prediction query: rank completions of one side
  serve     --train <TSV> (--model-file <FILE> | --models-dir <DIR>)
            [--addr 127.0.0.1:8080] [--workers 4] [--max-inflight 64]
            [--deadline-ms 10000] [--cache-entries 256] [--rank-threads 2]
            [--for-secs <SECS>]
            serve POST /v1/score, /v1/rank, /v1/discover (plus /healthz,
            /metrics, /v1/models, /v1/reload) over HTTP; models come from
            `kgfd train` files (named by file stem) and hot-reload on
            demand; requests beyond --max-inflight are shed with 429 +
            Retry-After, each request gets a --deadline-ms budget (typed
            408 on expiry), repeated queries hit an LRU response cache
            (bit-identical to the cold path), and SIGTERM drains
            gracefully: in-flight requests finish, new ones get 503
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
  --serve-metrics <ADDR>  serve GET /metrics (Prometheus), /healthz, and
                        /trace on ADDR (e.g. 127.0.0.1:9464) for the
                        duration of the run

EXIT CODES:
  0 success            1 runtime error       2 usage error
  3 corrupt model file (bad magic, checksum mismatch, truncation)
  4 unsupported model format version
  5 model file needs migration (format v1 or retired kind: retrain and re-save)
  6 training interrupted by --deadline; checkpoint saved, rerun with --resume
";

/// Maps an error returned by [`run`] to the `kgfd` process exit code.
///
/// Persistence failures get distinct codes (see the `EXIT CODES` section of
/// [`USAGE`]) so scripts and CI can tell "the model file is damaged" from
/// ordinary runtime errors; the error's source chain is walked so a wrapped
/// [`KgError`] still maps correctly.
pub fn exit_code(err: &(dyn Error + 'static)) -> i32 {
    let mut current: Option<&(dyn Error + 'static)> = Some(err);
    while let Some(e) = current {
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

/// What `--trace-out` / `--flame-out` asked for; exports happen in
/// [`finish_tracing`] after the command completes.
struct TraceFlags {
    trace_out: Option<String>,
    flame_out: Option<String>,
    enabled: bool,
}

/// Handles the tracing/serving flags: enables span collection when any of
/// them is present and binds the live metrics endpoint for
/// `--serve-metrics`.
fn tracing_setup(
    args: &Args,
) -> Result<(TraceFlags, Option<kgfd_serve::MetricsServer>), Box<dyn Error>> {
    let trace_out = optional_value(args, "trace-out")?;
    let flame_out = optional_value(args, "flame-out")?;
    let serve = optional_value(args, "serve-metrics")?;
    let enabled = trace_out.is_some() || flame_out.is_some() || serve.is_some();
    if enabled {
        kgfd_obs::enable_tracing();
    }
    let server = match serve {
        Some(addr) => {
            let server = kgfd_serve::MetricsServer::start(&addr)
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            // Announce the bound address so `--serve-metrics 127.0.0.1:0`
            // (ephemeral port) is usable by whoever wants to scrape us.
            if !args.flag("quiet") {
                eprintln!("serving metrics on http://{}", server.local_addr());
            }
            Some(server)
        }
        None => None,
    };
    Ok((
        TraceFlags {
            trace_out,
            flame_out,
            enabled,
        },
        server,
    ))
}

/// Shuts the metrics endpoint down, drains the collected span tree, and
/// writes the requested exports. Runs after the command finishes (success
/// or failure) so a failing run still leaves its partial trace behind.
fn finish_tracing(
    flags: &TraceFlags,
    server: Option<kgfd_serve::MetricsServer>,
) -> Result<(), Box<dyn Error>> {
    if let Some(server) = server {
        server.shutdown();
    }
    if !flags.enabled {
        return Ok(());
    }
    // Drain unconditionally: it frees the collected nodes and restores the
    // disabled-by-default state for in-process callers (tests, harness).
    let records = kgfd_obs::collector().drain();
    kgfd_obs::disable_tracing();
    if flags.trace_out.is_none() && flags.flame_out.is_none() {
        return Ok(());
    }
    let tree = kgfd_obs::TraceTree::build(records);
    if let Some(path) = &flags.trace_out {
        std::fs::write(path, kgfd_obs::chrome_trace(&tree))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &flags.flame_out {
        std::fs::write(path, kgfd_obs::flamegraph_collapsed(&tree))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// The dataset shape of a training graph, for run manifests.
fn dataset_shape(store: &TripleStore) -> kgfd_obs::DatasetShape {
    kgfd_obs::DatasetShape {
        entities: store.num_entities() as u64,
        relations: store.num_relations() as u64,
        triples: store.len() as u64,
    }
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> CmdResult {
    let _observer = install_observer(args)?;
    // Set the phase before `tracing_setup` can bind (and announce) the
    // `--serve-metrics` endpoint: a scraper that hits /healthz the moment
    // the address is printed must already see this command's phase, not a
    // leftover of whatever ran before.
    if let Some(cmd) = args.command.as_deref() {
        kgfd_obs::set_phase(cmd);
    }
    let (trace_flags, server) = tracing_setup(args)?;
    let root_span = args.command.as_deref().map(|cmd| {
        // One trace-only root per invocation: everything the command opens
        // (discover.total, training epochs, ...) nests under it, so trace
        // exports have a single root whose duration is the run itself.
        kgfd_obs::Span::with_fields_traced(
            "cli.command",
            vec![kgfd_obs::Field::new("command", cmd)],
        )
    });
    let result = dispatch(args);
    drop(root_span);
    finish_tracing(&trace_flags, server)?;
    result
}

fn dispatch(args: &Args) -> CmdResult {
    match args.command.as_deref() {
        Some("generate") => cmd_generate(args),
        Some("stats") => cmd_stats(args),
        Some("train") => cmd_train(args),
        Some("eval") => cmd_eval(args),
        Some("discover") => cmd_discover(args),
        Some("audit-inverse") => cmd_audit_inverse(args),
        Some("fit") => cmd_fit(args),
        Some("complete") => cmd_complete(args),
        Some("serve") => cmd_serve(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
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

fn parse_model(name: &str) -> Result<ModelKind, Box<dyn Error>> {
    ModelKind::from_name(name)
        .ok_or_else(|| format!("unknown model {name:?}; see `kgfd help`").into())
}

fn parse_strategy(name: &str) -> Result<StrategyKind, Box<dyn Error>> {
    StrategyKind::from_name(name)
        .ok_or_else(|| format!("unknown strategy {name:?}; see `kgfd help`").into())
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
            other => return Err(format!("unknown profile {other:?}").into()),
        };
        let profile = match scale {
            "standard" => base,
            "mini" => mini(&base),
            other => return Err(format!("unknown scale {other:?}").into()),
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
    let components = connected_components(&adj);
    if args.flag("json") {
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "summary": summary,
            "transitivity": transitivity,
            "components": components,
        }))?);
    }
    let cards = kgfd_kg::relation_cardinalities(&store);
    let count_of = |c: kgfd_kg::Cardinality| cards.iter().filter(|x| x.category == c).count();
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
         components          {} (largest {}, isolated {})\n\
         relation categories 1-1: {}, 1-N: {}, N-1: {}, N-M: {}\n\
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
        components.count,
        components.largest,
        components.isolated,
        count_of(kgfd_kg::Cardinality::OneToOne),
        count_of(kgfd_kg::Cardinality::OneToMany),
        count_of(kgfd_kg::Cardinality::ManyToOne),
        count_of(kgfd_kg::Cardinality::ManyToMany),
        store.complement_size(),
    ))
}

/// Resolves a user-requested `--threads` value through the pool's central
/// policy: zero is rejected, requests beyond the pool's width are clamped
/// (with a warning event). One helper so train/eval/discover, the harness,
/// and `repro` all agree on the rule.
fn resolve_threads_arg(requested: usize) -> Result<usize, String> {
    kgfd_pool::resolve_threads(requested).map_err(|e| format!("--threads: {e}"))
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
        other => return Err(format!("unknown loss {other:?} (margin|bce)").into()),
    };
    let config = TrainConfig {
        dim: args.parse_or("dim", 32, "integer")?,
        epochs: args.parse_or("epochs", 30, "integer")?,
        batch_size: args.parse_or("batch-size", 256, "integer")?,
        negatives: args.parse_or("negatives", 4, "integer")?,
        loss,
        optimizer: OptimizerKind::Adam {
            lr: args.parse_or("lr", 0.01, "number")?,
        },
        filter_negatives: true,
        normalize_entities: kind == ModelKind::TransE,
        adversarial_temperature: match args.get("adversarial") {
            Some(raw) => Some(raw.parse().map_err(|_| ArgError::Invalid {
                key: "adversarial".into(),
                value: raw.into(),
                expected: "number",
            })?),
            None => None,
        },
        seed: args.parse_or("seed", 0, "integer")?,
        threads: resolve_threads_arg(args.parse_or(
            "threads",
            TrainConfig::default_threads(),
            "integer",
        )?)?,
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
    if checkpointing && args.flag("early-stop") {
        return Err(
            "--early-stop cannot be combined with --checkpoint-every/--resume/--deadline \
             (early stopping keeps its best-so-far parameters in memory, which a \
             checkpoint cannot capture yet)"
                .into(),
        );
    }
    let out = args.required("out")?;

    let mut resumed_from: Option<String> = None;
    let (model, summary, final_loss): (Box<dyn KgeModel>, String, Option<f64>) =
        if args.flag("early-stop") {
            let valid_path = args
                .get("valid")
                .ok_or_else(|| ArgError::Missing("valid".into()))?;
            let valid = load_with_vocab(valid_path, &vocab)?;
            let (model, stats) =
                train_with_early_stopping(kind, &store, &valid, &config, EarlyStopping::default());
            (
                model,
                format!(
                    "early stopping: best valid MRR {:.4} after {} epochs",
                    stats.best_mrr, stats.epochs_trained
                ),
                None,
            )
        } else {
            // Checkpoint flags only add a policy and a stop signal; without
            // them this is the same session run to completion.
            let (mut session, report) = if resume {
                resume_latest(kind, &store, &config, Path::new(out))?
            } else {
                (
                    TrainSession::new(kind, &store, &config)
                        .map_err(|e| format!("cannot start training: {e}"))?,
                    ResumeReport::default(),
                )
            };
            resumed_from = report
                .resumed_from
                .as_ref()
                .map(|p| p.display().to_string());
            let policy =
                checkpointing.then(|| CheckpointPolicy::new(PathBuf::from(out), checkpoint_every));
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
            let loss = stats.final_loss();
            (
                model,
                format!(
                    "final training loss {} over {} epochs",
                    render_loss(loss),
                    config.epochs
                ),
                Some(loss),
            )
        };

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
        final_loss,
        resumed_from,
        checkpoint_every,
        None,
    );

    Ok(format!(
        "trained {kind} (dim {}, {} parameters) on {} triples\n{summary}\nsaved to {out}",
        config.dim,
        model.params().num_parameters(),
        store.len(),
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

    let threads = resolve_threads_arg(args.parse_or("threads", 4, "integer")?)?;
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
    let top_k = match args.get("top-k") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("--top-k expects an integer, got {v:?}"))?,
        ),
        None => None,
    };
    let config = DiscoveryConfig {
        strategy: parse_strategy(args.get("strategy").unwrap_or("ef"))?,
        top_n: args.parse_or("top-n", 500, "integer")?,
        max_candidates: args.parse_or("max-candidates", 500, "integer")?,
        relations,
        exploration_epsilon: args.parse_or("explore", 0.0, "number")?,
        consolidate_sides: args.flag("consolidate"),
        prune_with_rules: args.flag("prune"),
        seed: args.parse_or("seed", 0, "integer")?,
        threads: resolve_threads_arg(args.parse_or(
            "threads",
            DiscoveryConfig::default().threads,
            "integer",
        )?)?,
        chunk_size: args.parse_or(
            "chunk-size",
            DiscoveryConfig::default().chunk_size,
            "integer",
        )?,
        top_k,
        ..DiscoveryConfig::default()
    };
    if config.chunk_size == 0 {
        return Err("--chunk-size must be at least 1".into());
    }
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
        .with_config("exploration_epsilon", config.exploration_epsilon)
        .with_config("consolidate_sides", config.consolidate_sides)
        .with_config("prune_with_rules", config.prune_with_rules)
        .with_config("chunk_size", config.chunk_size)
        .with_config("top_k", config.top_k.map(|k| k as u64).unwrap_or(0))
        .with_config("facts", report.facts.len())
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

fn cmd_complete(args: &Args) -> CmdResult {
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let model = load_model_file(args.required("model-file")?)?;
    check_model_matches(model.as_ref(), &store)?;

    let relation_label = args.required("relation")?;
    let r = vocab
        .relation(relation_label)
        .ok_or_else(|| format!("relation {relation_label:?} not in the graph"))?;
    let top = args.parse_or("top", 10usize, "integer")?;

    let mut scores = vec![0.0f32; store.num_entities()];
    let (query, fixed_side) = match (args.get("subject"), args.get("object")) {
        (Some(s), None) => {
            let sid = vocab
                .entity(s)
                .ok_or_else(|| format!("entity {s:?} not in the graph"))?;
            model.score_objects(sid, r, &mut scores);
            (format!("({s}, {relation_label}, ?)"), sid)
        }
        (None, Some(o)) => {
            let oid = vocab
                .entity(o)
                .ok_or_else(|| format!("entity {o:?} not in the graph"))?;
            model.score_subjects(r, oid, &mut scores);
            (format!("(?, {relation_label}, {o})"), oid)
        }
        _ => return Err("provide exactly one of --subject or --object".into()),
    };
    let _ = fixed_side;

    let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!("top {top} completions of {query} ({}):\n", model.kind());
    for (e, score) in ranked.into_iter().take(top) {
        out.push_str(&format!(
            "  {:<24} {score:.4}\n",
            vocab
                .entity_label(kgfd_kg::EntityId(e as u32))
                .unwrap_or("?")
        ));
    }
    Ok(out)
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
        workers: args.parse_or("workers", 4usize, "integer")?.max(1),
        max_inflight: args.parse_or("max-inflight", 64usize, "integer")?.max(1),
        deadline_ms: args.parse_or("deadline-ms", 10_000u64, "integer")?,
        cache_entries: args.parse_or("cache-entries", 256usize, "integer")?,
        rank_threads: args.parse_or("rank-threads", 2usize, "integer")?.max(1),
        enable_test_endpoints: args.flag("test-endpoints"),
        ..kgfd_serve::ServeConfig::default()
    };
    let for_secs = match args.get("for-secs") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--for-secs expects an integer, got {v:?}"))?,
        ),
        None => None,
    };

    kgfd_serve::install_termination_handler();
    let server = kgfd_serve::Server::start(config.clone(), Arc::clone(&registry))
        .map_err(|e| format!("cannot serve on {}: {e}", config.addr))?;
    // Announce the bound address (ephemeral ports become usable) in the
    // same shape `--serve-metrics` uses.
    if !args.flag("quiet") {
        eprintln!("serving kgfd on http://{}", server.local_addr());
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

fn cmd_audit_inverse(args: &Args) -> CmdResult {
    let (vocab, triples) = load_graph(args.required("train")?)?;
    let store = store_of(&vocab, triples)?;
    let threshold = args.parse_or("threshold", 0.8, "number")?;
    let pairs = find_inverse_pairs(&store, threshold);
    if pairs.is_empty() {
        return Ok(format!("no inverse pairs at threshold {threshold}"));
    }
    let mut out = format!(
        "{} (near-)inverse pairs at threshold {threshold}:\n",
        pairs.len()
    );
    for p in pairs {
        let kind = if p.relation == p.inverse {
            "symmetric"
        } else {
            "inverse"
        };
        out.push_str(&format!(
            "  {:<10} {} ↔ {} (overlap {:.2})\n",
            kind,
            vocab.relation_label(p.relation).unwrap_or("?"),
            vocab.relation_label(p.inverse).unwrap_or("?"),
            p.overlap
        ));
    }
    out.push_str("these relations leak test answers; consider removing one direction (cf. FB15K-237 / WN18RR)");
    Ok(out)
}
