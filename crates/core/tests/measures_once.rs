//! Concurrent first lookups of one graph's strategy table build it once.
//!
//! A test binary of its own: `discover.cache.measures_miss` is a
//! process-global counter, so no other test may move it while this one
//! reads it.

use fact_discovery::{cached_measures, StrategyKind};
use kgfd_datasets::{fb15k237_like, generate};
use kgfd_kg::EntityId;
use std::sync::Barrier;

#[test]
fn concurrent_cold_lookups_build_square_clustering_once() {
    let data = generate(&fb15k237_like()).expect("builtin profiles are valid");
    let store = &data.train;
    let misses = kgfd_obs::counter("discover.cache.measures_miss");
    let before = misses.get();

    let barrier = Barrier::new(4);
    let tables: Vec<_> = std::thread::scope(|s| {
        let lookups: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cached_measures(StrategyKind::ClusteringSquares, store)
                })
            })
            .collect();
        lookups.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        misses.get() - before,
        1,
        "four concurrent cold lookups must build the table once"
    );
    for table in &tables[1..] {
        for e in 0..store.num_entities() as u32 {
            assert_eq!(
                table.value(EntityId(e)).to_bits(),
                tables[0].value(EntityId(e)).to_bits()
            );
        }
    }
}
