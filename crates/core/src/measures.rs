//! Graph-global node measures backing the side-agnostic strategies.
//!
//! The tables belong to the graph: [`cached_measures`] reads the store's
//! slot for the strategy's [`NodeMeasure`], so each table is built at most
//! once per `TripleStore` (by the first discovery run, grid or sweep cell,
//! or served request that needs it) and is freed with the store. The cost
//! asymmetry between the "cheap" strategies (uniform/frequency/degree, all
//! linear) and the triangle- and square-based ones (superlinear) is exactly
//! what the paper's runtime figures (Figure 2, §4.3) measure, so preparation
//! time is tracked separately in the discovery report.

use crate::StrategyKind;
use kgfd_graph_stats::{
    local_clustering_coefficients, local_triangle_counts, occurrence_degrees,
    square_clustering_coefficients, UndirectedAdjacency,
};
use kgfd_kg::{EntityId, NodeMeasure, TripleStore};
use std::sync::Arc;

/// Per-entity weight source for one strategy.
#[derive(Debug, Clone)]
pub enum Measures {
    /// No global measure: weights come from the per-relation pool itself
    /// (UNIFORM RANDOM and ENTITY FREQUENCY).
    PoolLocal,
    /// A global per-entity non-negative measure (degree, triangles,
    /// clustering coefficient, squares coefficient, PageRank).
    Global(Arc<[f64]>),
}

impl Measures {
    /// Computes whatever `strategy` needs on `store`, without reading or
    /// filling the store's table.
    pub fn compute(strategy: StrategyKind, store: &TripleStore) -> Measures {
        match strategy.node_measure() {
            None => Measures::PoolLocal,
            Some(measure) => Measures::Global(build(measure, store)),
        }
    }

    /// The measure value of one entity (1.0 under [`Measures::PoolLocal`],
    /// where the pool supplies the weights instead).
    pub fn value(&self, e: EntityId) -> f64 {
        match self {
            Measures::PoolLocal => 1.0,
            Measures::Global(v) => v[e.index()],
        }
    }
}

/// The strategy's measure table for `store`, built by the first lookup and
/// shared by every later one on the same store: discovery runs on one graph
/// (grid cells iterating strategies, sweep cells iterating
/// `max_candidates`/`top_n`, served requests) stop recomputing the
/// superlinear triangle/coefficient/PageRank tables, and concurrent first
/// lookups wait for one build. The lookup that builds counts on
/// `discover.cache.measures_miss`, every other one on
/// `discover.cache.measures_hit`.
///
/// Pool-local strategies (UNIFORM RANDOM, ENTITY FREQUENCY) have no global
/// table and count neither.
pub fn cached_measures(strategy: StrategyKind, store: &TripleStore) -> Arc<Measures> {
    let Some(measure) = strategy.node_measure() else {
        return Arc::new(Measures::PoolLocal);
    };
    let mut built = false;
    let table = store.node_measure(measure, || {
        built = true;
        build(measure, store)
    });
    kgfd_obs::counter(if built {
        "discover.cache.measures_miss"
    } else {
        "discover.cache.measures_hit"
    })
    .inc();
    Arc::new(Measures::Global(Arc::clone(table)))
}

/// Runs the graph algorithm behind `measure` on `store`. A table is copied
/// into its `Arc` while the adjacency is still allocated: made after the
/// adjacency is freed, the copy left a hole in the heap that raised the
/// peak RSS of `kgfd discover --strategy cs` on FB15K-237 ×6 by ~0.4 MiB
/// (glibc malloc).
fn build(measure: NodeMeasure, store: &TripleStore) -> Arc<[f64]> {
    let adj = || UndirectedAdjacency::from_store(store);
    match measure {
        NodeMeasure::Degree => occurrence_degrees(store)
            .into_iter()
            .map(|d| d as f64)
            .collect(),
        NodeMeasure::Triangles => local_triangle_counts(&adj())
            .into_iter()
            .map(|t| t as f64)
            .collect(),
        NodeMeasure::ClusteringCoefficient => local_clustering_coefficients(&adj()).into(),
        NodeMeasure::SquareClustering => square_clustering_coefficients(&adj()).into(),
        NodeMeasure::PageRank => kgfd_graph_stats::pagerank(&adj(), 0.85, 100, 1e-9).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::Triple;

    fn triangle_plus_pendant() -> TripleStore {
        TripleStore::new(
            4,
            1,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(1u32, 0u32, 2u32),
                Triple::new(2u32, 0u32, 0u32),
                Triple::new(2u32, 0u32, 3u32),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pool_local_strategies_have_unit_measure() {
        let store = triangle_plus_pendant();
        for kind in [StrategyKind::UniformRandom, StrategyKind::EntityFrequency] {
            let m = Measures::compute(kind, &store);
            assert_eq!(m.value(EntityId(0)), 1.0);
            assert_eq!(m.value(EntityId(3)), 1.0);
        }
    }

    #[test]
    fn degree_measure_matches_occurrences() {
        let store = triangle_plus_pendant();
        let m = Measures::compute(StrategyKind::GraphDegree, &store);
        assert_eq!(m.value(EntityId(2)), 3.0);
        assert_eq!(m.value(EntityId(3)), 1.0);
    }

    #[test]
    fn triangle_measure_ignores_pendants() {
        let store = triangle_plus_pendant();
        let m = Measures::compute(StrategyKind::ClusteringTriangles, &store);
        assert_eq!(m.value(EntityId(0)), 1.0);
        assert_eq!(m.value(EntityId(3)), 0.0);
    }

    #[test]
    fn coefficient_penalizes_hubs() {
        // The star-graph example of §4.2.2: popular hub, zero coefficient.
        let star = TripleStore::new(
            5,
            1,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(0u32, 0u32, 2u32),
                Triple::new(0u32, 0u32, 3u32),
                Triple::new(0u32, 0u32, 4u32),
            ],
        )
        .unwrap();
        let deg = Measures::compute(StrategyKind::GraphDegree, &star);
        let coeff = Measures::compute(StrategyKind::ClusteringCoefficient, &star);
        assert!(deg.value(EntityId(0)) > deg.value(EntityId(1)));
        assert_eq!(coeff.value(EntityId(0)), 0.0);
    }

    #[test]
    fn pagerank_measure_favors_hubs() {
        let star = TripleStore::new(
            4,
            1,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(0u32, 0u32, 2u32),
                Triple::new(0u32, 0u32, 3u32),
            ],
        )
        .unwrap();
        let m = Measures::compute(StrategyKind::PageRank, &star);
        assert!(m.value(EntityId(0)) > m.value(EntityId(1)));
    }

    #[test]
    fn squares_measure_detects_four_cycles() {
        let square = TripleStore::new(
            4,
            1,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(1u32, 0u32, 2u32),
                Triple::new(2u32, 0u32, 3u32),
                Triple::new(3u32, 0u32, 0u32),
            ],
        )
        .unwrap();
        let m = Measures::compute(StrategyKind::ClusteringSquares, &square);
        for e in 0..4 {
            assert!((m.value(EntityId(e)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_measures_returns_the_same_table_for_the_same_graph() {
        let store = triangle_plus_pendant();
        let table = |m: &Measures| match m {
            Measures::Global(v) => Arc::clone(v),
            Measures::PoolLocal => panic!("triangles have a global table"),
        };
        let a = cached_measures(StrategyKind::ClusteringTriangles, &store);
        let b = cached_measures(StrategyKind::ClusteringTriangles, &store);
        assert!(
            Arc::ptr_eq(&table(&a), &table(&b)),
            "second lookup must reuse the store's table"
        );
        // The stored table matches a direct computation.
        let direct = Measures::compute(StrategyKind::ClusteringTriangles, &store);
        for e in 0..4 {
            assert_eq!(a.value(EntityId(e)), direct.value(EntityId(e)));
        }
        // Pool-local strategies have no table.
        let p = cached_measures(StrategyKind::UniformRandom, &store);
        assert!(matches!(*p, Measures::PoolLocal));
    }
}
