//! The harness's JSON result series must round-trip: plotting tooling and
//! EXPERIMENTS.md bookkeeping consume these files across versions.

use kgfd_harness::{
    run_grid, run_sweep, DatasetRef, GridOptions, GridResults, Scale, SweepOptions, SweepResults,
};

fn slim_grid() -> GridResults {
    let mut options = GridOptions::for_scale(Scale::Mini);
    options.datasets = vec![DatasetRef::Wn18rr];
    options.models = vec![kgfd_embed::ModelKind::TransE];
    options.strategies = vec![
        fact_discovery::StrategyKind::UniformRandom,
        fact_discovery::StrategyKind::GraphDegree,
    ];
    run_grid(Scale::Mini, &options)
}

#[test]
fn grid_results_roundtrip_through_json() {
    let grid = slim_grid();
    let json = serde_json::to_string(&grid).unwrap();
    let back: GridResults = serde_json::from_str(&json).unwrap();
    assert_eq!(back.cells.len(), grid.cells.len());
    for (a, b) in grid.cells.iter().zip(&back.cells) {
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.facts, b.facts);
        assert!((a.mrr - b.mrr).abs() < 1e-12);
    }
}

#[test]
fn sweep_results_roundtrip_through_json() {
    let options = SweepOptions {
        max_candidates: vec![10, 20],
        top_n: vec![5],
        strategies: vec![fact_discovery::StrategyKind::UniformRandom],
        seed: 1,
        threads: 2,
    };
    let sweep = run_sweep(Scale::Mini, &options);
    let json = serde_json::to_string(&sweep).unwrap();
    let back: SweepResults = serde_json::from_str(&json).unwrap();
    assert_eq!(back.cells.len(), sweep.cells.len());
    assert!(back
        .at(fact_discovery::StrategyKind::UniformRandom, 10, 5)
        .is_some());
}

#[test]
fn grid_accessors_are_consistent() {
    let grid = slim_grid();
    let wn = grid.for_dataset(DatasetRef::Wn18rr);
    assert_eq!(wn.len(), grid.cells.len(), "single-dataset grid");
    assert!(grid.for_dataset(DatasetRef::Yago310).is_empty());
    let mean = grid.strategy_mean(fact_discovery::StrategyKind::UniformRandom, |c| {
        c.facts as f64
    });
    assert!(mean >= 0.0);
}
