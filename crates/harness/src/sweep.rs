//! The hyperparameter sweeps of §4.3: `max_candidates` × `top_n` grids on
//! FB15K-237 with TransE, for UNIFORM RANDOM and CLUSTERING TRIANGLES —
//! the shared input of Figures 7, 8, 9, and 10.

use crate::{trained_model_threaded, DatasetRef, Scale};
use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_embed::ModelKind;
use serde::{Deserialize, Serialize};

/// The paper's grid-search values (§4.3.1).
pub const MAX_CANDIDATES_VALUES: [usize; 7] = [50, 100, 200, 300, 400, 500, 700];
/// The paper's `top_n` grid-search values (§4.3.1).
pub const TOP_N_VALUES: [usize; 6] = [100, 200, 300, 400, 500, 700];

/// One sweep measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Strategy of this run (UNIFORM RANDOM or CLUSTERING TRIANGLES).
    pub strategy: StrategyKind,
    /// `max_candidates` of this run.
    pub max_candidates: usize,
    /// `top_n` of this run.
    pub top_n: usize,
    /// Total runtime in seconds.
    pub runtime_s: f64,
    /// Facts discovered.
    pub facts: usize,
    /// MRR of discovered facts.
    pub mrr: f64,
    /// Facts per hour.
    pub facts_per_hour: f64,
}

/// All sweep cells plus the context they ran in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResults {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// All measurements.
    pub cells: Vec<SweepCell>,
}

impl SweepResults {
    /// Cells matching a strategy, sorted by (max_candidates, top_n).
    pub fn series(&self, strategy: StrategyKind) -> Vec<&SweepCell> {
        let mut v: Vec<&SweepCell> = self
            .cells
            .iter()
            .filter(|c| c.strategy == strategy)
            .collect();
        v.sort_by_key(|c| (c.max_candidates, c.top_n));
        v
    }

    /// The cell for an exact parameter combination.
    pub fn at(
        &self,
        strategy: StrategyKind,
        max_candidates: usize,
        top_n: usize,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.strategy == strategy && c.max_candidates == max_candidates && c.top_n == top_n
        })
    }
}

/// Sweep options (values scale down with [`Scale::Mini`]).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// `max_candidates` values to sweep.
    pub max_candidates: Vec<usize>,
    /// `top_n` values to sweep.
    pub top_n: Vec<usize>,
    /// Strategies to sweep (paper: UNIFORM RANDOM + CLUSTERING TRIANGLES).
    pub strategies: Vec<StrategyKind>,
    /// Discovery seed.
    pub seed: u64,
    /// Ranking threads.
    pub threads: usize,
    /// Training threads for the zoo model when it misses the disk cache.
    pub train_threads: usize,
    /// When set, each grid cell writes its structured events (spans,
    /// metrics, manifest) to `<dir>/sweep-<strategy>-mc<MC>-top<N>.jsonl`.
    pub metrics_dir: Option<std::path::PathBuf>,
}

impl SweepOptions {
    /// Paper-default sweep values, scaled for mini runs.
    pub fn for_scale(scale: Scale) -> Self {
        let (max_candidates, top_n) = match scale {
            Scale::Standard => (MAX_CANDIDATES_VALUES.to_vec(), TOP_N_VALUES.to_vec()),
            Scale::Mini => (vec![10, 20, 40, 60, 100], vec![10, 20, 40, 60]),
        };
        SweepOptions {
            max_candidates,
            top_n,
            strategies: vec![
                StrategyKind::UniformRandom,
                StrategyKind::ClusteringTriangles,
            ],
            seed: 11,
            threads: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1),
            train_threads: kgfd_embed::TrainConfig::default_threads(),
            metrics_dir: None,
        }
    }
}

/// Runs the §4.3 sweep on FB15K-237-like with TransE.
pub fn run_sweep(scale: Scale, options: &SweepOptions) -> SweepResults {
    // Central thread policy, shared with the CLI and grid (see kgfd-pool).
    let threads =
        kgfd_pool::resolve_threads(options.threads).expect("sweep options: threads must be >= 1");
    let train_threads = kgfd_pool::resolve_threads(options.train_threads)
        .expect("sweep options: train_threads must be >= 1");
    let dataset = DatasetRef::Fb15k237;
    let data = dataset.load(scale);
    let model = trained_model_threaded(dataset, ModelKind::TransE, scale, &data, train_threads);

    let mut cells = Vec::new();
    for &strategy in &options.strategies {
        for &max_candidates in &options.max_candidates {
            for &top_n in &options.top_n {
                let _cell = crate::cell_observer(
                    options.metrics_dir.as_deref(),
                    &format!("sweep-{}-mc{max_candidates}-top{top_n}", strategy.abbrev()),
                );
                kgfd_obs::set_phase(format!(
                    "sweep:{}/mc{max_candidates}/top{top_n}",
                    strategy.abbrev()
                ));
                let cell_span = kgfd_obs::span_traced!(
                    "harness.sweep.cell",
                    strategy = strategy.abbrev(),
                    max_candidates = max_candidates,
                    top_n = top_n
                );
                let config = DiscoveryConfig {
                    strategy,
                    top_n,
                    max_candidates,
                    seed: options.seed,
                    threads,
                    ..DiscoveryConfig::default()
                };
                let report = discover_facts(model.as_ref(), &data.train, &config);
                drop(cell_span);
                let mut manifest = kgfd_obs::RunManifest::new("sweep-cell");
                manifest.strategy = strategy.to_string();
                manifest.model = ModelKind::TransE.to_string();
                manifest.seed = options.seed;
                manifest.dataset = kgfd_obs::DatasetShape {
                    entities: data.train.num_entities() as u64,
                    relations: data.train.num_relations() as u64,
                    triples: data.train.len() as u64,
                };
                manifest.wall_clock_s = report.total.as_secs_f64();
                manifest
                    .with_config("max_candidates", max_candidates)
                    .with_config("top_n", top_n)
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
                cells.push(SweepCell {
                    strategy,
                    max_candidates,
                    top_n,
                    runtime_s: report.total.as_secs_f64(),
                    facts: report.facts.len(),
                    mrr: report.mrr(),
                    facts_per_hour: report.facts_per_hour(),
                });
            }
        }
        kgfd_obs::progress(format!("[sweep {}] finished {strategy}", scale.name()));
    }
    SweepResults { scale, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_covers_the_grid() {
        let options = SweepOptions {
            max_candidates: vec![10, 20],
            top_n: vec![5, 10],
            strategies: vec![StrategyKind::UniformRandom],
            seed: 1,
            threads: 2,
            train_threads: 1,
            ..SweepOptions::for_scale(Scale::Mini)
        };
        let _log = crate::recovery_log_lock();
        let results = run_sweep(Scale::Mini, &options);
        assert_eq!(results.cells.len(), 4);
        assert!(results.at(StrategyKind::UniformRandom, 10, 5).is_some());
        assert_eq!(results.series(StrategyKind::UniformRandom).len(), 4);
    }

    #[test]
    fn candidates_scale_with_max_candidates() {
        let options = SweepOptions {
            max_candidates: vec![10, 50],
            top_n: vec![1_000_000], // keep everything
            strategies: vec![StrategyKind::ClusteringTriangles],
            seed: 2,
            threads: 2,
            train_threads: 1,
            ..SweepOptions::for_scale(Scale::Mini)
        };
        let _log = crate::recovery_log_lock();
        let results = run_sweep(Scale::Mini, &options);
        let small = results
            .at(StrategyKind::ClusteringTriangles, 10, 1_000_000)
            .unwrap();
        let large = results
            .at(StrategyKind::ClusteringTriangles, 50, 1_000_000)
            .unwrap();
        assert!(
            large.facts > small.facts,
            "{} vs {}",
            large.facts,
            small.facts
        );
    }
}
