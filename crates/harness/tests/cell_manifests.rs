//! Every grid and sweep cell closes with one run manifest in the installed
//! observer, so a run's one `--metrics-out` file holds them all. This
//! binary holds a single test: the observer is process-wide.

use fact_discovery::StrategyKind;
use kgfd_embed::ModelKind;
use kgfd_harness::{run_grid, run_sweep, DatasetRef, GridOptions, Scale, SweepOptions};
use kgfd_obs::{Event, FieldValue, Observer, Payload, RunManifest};
use std::sync::{Arc, Mutex};

/// Keeps every event delivered to it.
#[derive(Default)]
struct Events(Mutex<Vec<Payload>>);

impl Observer for Events {
    fn event(&self, event: &Event) {
        self.0.lock().unwrap().push(event.payload.clone());
    }
}

/// The configuration keys of a cell manifest, in order.
const CELL_KEYS: [&str; 7] = [
    "top_n",
    "max_candidates",
    "chunk_size",
    "facts",
    "eval.rank.dedup_ratio",
    "discover.stream.peak_buffer",
    "discover.cache.measures_hit",
];

/// The manifests of one runner's cells, checked for the cell keys.
fn cells<'a>(manifests: &'a [RunManifest], command: &str) -> Vec<&'a RunManifest> {
    let cells: Vec<&RunManifest> = manifests.iter().filter(|m| m.command == command).collect();
    for m in &cells {
        let keys: Vec<&str> = m.config.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(keys, CELL_KEYS, "{command}");
    }
    cells
}

/// The unsigned value of a manifest's configuration key.
fn uint(manifest: &RunManifest, key: &str) -> u64 {
    match manifest
        .config
        .iter()
        .find(|f| f.key == key)
        .map(|f| &f.value)
    {
        Some(FieldValue::UInt(v)) => *v,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn every_grid_and_sweep_cell_closes_with_one_manifest_in_the_installed_sink() {
    let sink = Arc::new(Events::default());
    let observer = kgfd_obs::scoped(sink.clone());
    let grid = run_grid(
        Scale::Mini,
        &GridOptions {
            datasets: vec![DatasetRef::Wn18rr],
            models: vec![ModelKind::DistMult],
            strategies: vec![
                StrategyKind::UniformRandom,
                StrategyKind::ClusteringTriangles,
            ],
            ..GridOptions::for_scale(Scale::Mini)
        },
    );
    let sweep = run_sweep(
        Scale::Mini,
        &SweepOptions {
            max_candidates: vec![10, 20],
            top_n: vec![5],
            strategies: vec![StrategyKind::EntityFrequency],
            ..SweepOptions::for_scale(Scale::Mini)
        },
    );
    drop(observer);
    let events = sink.0.lock().unwrap();
    // Each cell's progress line comes before its manifest, and nothing
    // follows the last cell's manifest: a manifest closes its cell.
    for (i, event) in events.iter().enumerate() {
        if let Payload::Manifest(_) = event {
            assert!(
                matches!(&events[i - 1], Payload::Message { text, .. }
                    if text.starts_with("[grid] ") || text.starts_with("[sweep] ")),
                "{:?}",
                events[i - 1]
            );
        }
    }
    assert!(matches!(events.last(), Some(Payload::Manifest(_))));
    let manifests: Vec<RunManifest> = events
        .iter()
        .filter_map(|event| match event {
            Payload::Manifest(manifest) => Some((**manifest).clone()),
            _ => None,
        })
        .collect();

    let grid_cells = cells(&manifests, "grid-cell");
    assert_eq!(grid_cells.len(), 2);
    for (manifest, cell) in grid_cells.iter().zip(&grid.cells) {
        assert_eq!(manifest.strategy, cell.strategy.to_string());
        assert_eq!(manifest.model, cell.model.to_string());
        assert_eq!(uint(manifest, "top_n"), grid.top_n as u64);
        assert_eq!(uint(manifest, "facts"), cell.facts as u64);
    }
    let sweep_cells = cells(&manifests, "sweep-cell");
    assert_eq!(sweep_cells.len(), 2);
    for (manifest, cell) in sweep_cells.iter().zip(&sweep.cells) {
        assert_eq!(manifest.strategy, cell.strategy.to_string());
        assert_eq!(manifest.model, ModelKind::TransE.to_string());
        assert_eq!(uint(manifest, "max_candidates"), cell.max_candidates as u64);
        assert_eq!(uint(manifest, "top_n"), cell.top_n as u64);
        assert_eq!(uint(manifest, "facts"), cell.facts as u64);
    }
    assert_eq!(manifests.len(), 4, "one manifest per cell, no other");
}
