//! Running the paper's experimental grid (§4.2): every dataset × model ×
//! strategy combination, measuring runtime, fact quality (MRR), and
//! discovery efficiency — the shared input of Figures 2, 4, and 6.

use crate::{trained_model_threaded, DatasetRef, Scale};
use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_embed::ModelKind;
use serde::{Deserialize, Serialize};

/// Measurements of one grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridCell {
    /// Dataset of this cell.
    pub dataset: DatasetRef,
    /// KGE model of this cell.
    pub model: ModelKind,
    /// Sampling strategy of this cell.
    pub strategy: StrategyKind,
    /// Total discovery runtime in seconds (Figure 2's y-axis).
    pub runtime_s: f64,
    /// Strategy-measure preparation time in seconds (the superlinear part).
    pub preparation_s: f64,
    /// Candidates generated across relations.
    pub candidates: usize,
    /// Facts discovered (rank ≤ top_n).
    pub facts: usize,
    /// MRR of the discovered facts (Figure 4's y-axis).
    pub mrr: f64,
    /// Facts per hour (Figure 6's y-axis).
    pub facts_per_hour: f64,
}

/// All cells of one grid run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResults {
    /// Scale the grid ran at.
    pub scale: Scale,
    /// `top_n` used (paper: 500).
    pub top_n: usize,
    /// `max_candidates` used (paper: 500).
    pub max_candidates: usize,
    /// One cell per configuration, dataset-major order.
    pub cells: Vec<GridCell>,
}

impl GridResults {
    /// Cells of one dataset, in (model, strategy) order.
    pub fn for_dataset(&self, dataset: DatasetRef) -> Vec<&GridCell> {
        self.cells.iter().filter(|c| c.dataset == dataset).collect()
    }

    /// Mean of `f` over cells matching `strategy` (across datasets/models).
    pub fn strategy_mean(&self, strategy: StrategyKind, f: impl Fn(&GridCell) -> f64) -> f64 {
        let cells: Vec<_> = self
            .cells
            .iter()
            .filter(|c| c.strategy == strategy)
            .collect();
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().map(|c| f(c)).sum::<f64>() / cells.len() as f64
    }
}

/// Grid-run options; paper defaults per §4.3.2.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Quality threshold (paper: 500). Mini scale wants a smaller value
    /// because the mini graphs only have ~100–600 entities.
    pub top_n: usize,
    /// Candidate budget per relation (paper: 500).
    pub max_candidates: usize,
    /// Discovery seed.
    pub seed: u64,
    /// Ranking threads, and training threads for zoo models that miss the
    /// disk cache. Results are thread-count independent, so this only
    /// affects wall-clock time.
    pub threads: usize,
    /// Datasets to include (defaults to all four).
    pub datasets: Vec<DatasetRef>,
    /// Models to include (defaults to the paper's five).
    pub models: Vec<ModelKind>,
    /// Strategies to include (defaults to the paper's five).
    pub strategies: Vec<StrategyKind>,
    /// When set, each grid cell writes its structured events (spans,
    /// metrics, manifest) to
    /// `<dir>/grid-<dataset>-<model>-<strategy>.jsonl`.
    pub metrics_dir: Option<std::path::PathBuf>,
}

impl GridOptions {
    /// Paper-default options for the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        let (top_n, max_candidates) = match scale {
            Scale::Standard => (500, 500),
            // Mini graphs have ~100–600 entities; a top-500 filter would be
            // a no-op. Scale the knobs with the graph.
            Scale::Mini => (50, 100),
        };
        GridOptions {
            top_n,
            max_candidates,
            seed: 7,
            threads: kgfd_pool::default_threads(),
            datasets: DatasetRef::ALL.to_vec(),
            models: ModelKind::PAPER_GRID.to_vec(),
            strategies: StrategyKind::PAPER_GRID.to_vec(),
            metrics_dir: None,
        }
    }
}

/// Runs the grid at the given scale. Models come from the zoo (trained once,
/// disk-cached); each (dataset, model, strategy) cell is one discovery run.
pub fn run_grid(scale: Scale, options: &GridOptions) -> GridResults {
    // Central thread policy: zero is a caller bug (loud), over-wide
    // requests are clamped to the pool with a warning event.
    let threads =
        kgfd_pool::resolve_threads(options.threads).expect("grid options: threads must be >= 1");
    let mut cells = Vec::new();
    for &dataset in &options.datasets {
        let data = dataset.load(scale);
        for &model_kind in &options.models {
            let model = trained_model_threaded(dataset, model_kind, scale, &data, threads);
            for &strategy in &options.strategies {
                let _cell = crate::cell_observer(
                    options.metrics_dir.as_deref(),
                    &format!(
                        "grid-{}-{}-{}",
                        dataset.name(),
                        model_kind.name(),
                        strategy.abbrev()
                    ),
                );
                kgfd_obs::set_phase(format!(
                    "grid:{}/{}/{}",
                    dataset.name(),
                    model_kind.name(),
                    strategy.abbrev()
                ));
                let cell_span = kgfd_obs::span_traced!(
                    "harness.grid.cell",
                    dataset = dataset.name(),
                    model = model_kind.name(),
                    strategy = strategy.abbrev()
                );
                let config = DiscoveryConfig {
                    strategy,
                    top_n: options.top_n,
                    max_candidates: options.max_candidates,
                    seed: options.seed,
                    threads,
                    ..DiscoveryConfig::default()
                };
                let report = discover_facts(model.as_ref(), &data.train, &config);
                drop(cell_span);
                kgfd_obs::progress(format!(
                    "[grid {}] {dataset} × {model_kind} × {strategy}: {} facts, {:.1}s",
                    scale.name(),
                    report.facts.len(),
                    report.total.as_secs_f64()
                ));
                // The manifest goes last so it closes the cell's JSONL file.
                let mut manifest = kgfd_obs::RunManifest::new("grid-cell");
                manifest.strategy = strategy.to_string();
                manifest.model = model_kind.to_string();
                manifest.seed = options.seed;
                manifest.dataset = kgfd_obs::DatasetShape {
                    entities: data.train.num_entities() as u64,
                    relations: data.train.num_relations() as u64,
                    triples: data.train.len() as u64,
                };
                manifest.wall_clock_s = report.total.as_secs_f64();
                manifest
                    .with_config("top_n", options.top_n)
                    .with_config("max_candidates", options.max_candidates)
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
                cells.push(GridCell {
                    dataset,
                    model: model_kind,
                    strategy,
                    runtime_s: report.total.as_secs_f64(),
                    preparation_s: report.preparation.as_secs_f64(),
                    candidates: report.candidates_generated(),
                    facts: report.facts.len(),
                    mrr: report.mrr(),
                    facts_per_hour: report.facts_per_hour(),
                });
            }
        }
    }
    GridResults {
        scale,
        top_n: options.top_n,
        max_candidates: options.max_candidates,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_slice_runs_end_to_end() {
        let mut options = GridOptions::for_scale(Scale::Mini);
        options.datasets = vec![DatasetRef::Wn18rr];
        options.models = vec![ModelKind::DistMult];
        options.strategies = vec![StrategyKind::UniformRandom, StrategyKind::EntityFrequency];
        let _log = crate::recovery_log_lock();
        let results = run_grid(Scale::Mini, &options);
        assert_eq!(results.cells.len(), 2);
        for cell in &results.cells {
            assert!(cell.runtime_s > 0.0);
            assert!(cell.facts <= cell.candidates);
            assert!(cell.mrr <= 1.0);
        }
    }
}
