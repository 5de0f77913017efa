//! One cell of the grid or the sweep: a single discovery run, labelled,
//! traced and closed by its run manifest the same way wherever it sits.

use crate::DatasetRef;
use fact_discovery::{discover_facts, DiscoveryConfig, DiscoveryReport};
use kgfd_embed::{KgeModel, ModelKind};
use kgfd_kg::TripleStore;

/// The runner a cell belongs to. It names the cell's phase label
/// (`grid:...`), its span (`harness.grid.cell`) and its run manifest
/// (`grid-cell`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Runner {
    /// [`crate::run_grid`].
    Grid,
    /// [`crate::run_sweep`].
    Sweep,
}

/// Runs one cell: `model` discovers facts in `train` under `config`. The
/// run carries the phase label
/// `<runner>:<dataset>/<model>/<strategy>/mc<max_candidates>/top<top_n>`
/// and a `harness.<runner>.cell` span, reports a progress line, and closes
/// with a `<runner>-cell` run manifest in the installed observer: the
/// manifest is the last of the cell's events.
pub(crate) fn run_cell(
    runner: Runner,
    dataset: DatasetRef,
    model_kind: ModelKind,
    model: &dyn KgeModel,
    train: &TripleStore,
    config: &DiscoveryConfig,
) -> DiscoveryReport {
    let (name, span_name) = match runner {
        Runner::Grid => ("grid", "harness.grid.cell"),
        Runner::Sweep => ("sweep", "harness.sweep.cell"),
    };
    let strategy = config.strategy;
    kgfd_obs::set_phase(format!(
        "{name}:{}/{}/{}/mc{}/top{}",
        dataset.name(),
        model_kind.name(),
        strategy.abbrev(),
        config.max_candidates,
        config.top_n
    ));
    let span = kgfd_obs::span_traced!(
        span_name,
        dataset = dataset.name(),
        model = model_kind.name(),
        strategy = strategy.abbrev(),
        max_candidates = config.max_candidates,
        top_n = config.top_n
    );
    let report = discover_facts(model, train, config);
    drop(span);
    kgfd_obs::progress(format!(
        "[{name}] {dataset} × {model_kind} × {strategy}, mc {}, top {}: {} facts, {:.1}s",
        config.max_candidates,
        config.top_n,
        report.facts.len(),
        report.total.as_secs_f64()
    ));

    let mut manifest = kgfd_obs::RunManifest::new(format!("{name}-cell"));
    manifest.strategy = strategy.to_string();
    manifest.model = model_kind.to_string();
    manifest.seed = config.seed;
    manifest.dataset = kgfd_obs::DatasetShape {
        entities: train.num_entities() as u64,
        relations: train.num_relations() as u64,
        triples: train.len() as u64,
    };
    manifest.wall_clock_s = report.total.as_secs_f64();
    manifest
        .with_config("top_n", config.top_n)
        .with_config("max_candidates", config.max_candidates)
        .with_config("chunk_size", config.chunk_size)
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
            "discover.cache.measures_hit",
            kgfd_obs::counter("discover.cache.measures_hit").get(),
        )
        .emit();
    report
}
