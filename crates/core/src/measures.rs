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
//!
//! Discovery builds the square-clustering table across its thread budget:
//! each node's coefficient is independent, so the nodes are cut into
//! contiguous ranges of about equal estimated work, one fan-out chunk per
//! range, and the values are concatenated in node order. The table is bit-identical
//! at every thread count. Every other table, and every build through
//! [`cached_measures`] or [`Measures::compute`], runs on the calling thread.
//!
//! Two rules keep the threaded build where it helps:
//!
//! - No fan-out chunk looks up measures: a fan-out inside a chunk runs
//!   inline, so a build started there would run on one thread.
//! - `kgfd serve` builds a missing table on one detached thread (through
//!   [`cached_measures`]), so a request waiting for a multi-second build
//!   still answers at its deadline.

use crate::StrategyKind;
use kgfd_graph_stats::{
    local_clustering_coefficients, local_triangle_counts, occurrence_degrees, square_clustering_of,
    UndirectedAdjacency,
};
use kgfd_kg::{EntityId, NodeMeasure, TripleStore};
use std::ops::Range;
use std::sync::Arc;

/// Per-entity weight source for one strategy.
#[derive(Debug, Clone)]
pub enum Measures {
    /// No global measure: weights come from the per-relation pool itself
    /// (UNIFORM RANDOM and ENTITY FREQUENCY).
    PoolLocal,
    /// A global per-entity non-negative measure (degree, triangles,
    /// clustering coefficient, squares coefficient).
    Global(Arc<[f64]>),
}

impl Measures {
    /// Computes whatever `strategy` needs on `store` on the calling thread,
    /// without reading or filling the store's table.
    pub fn compute(strategy: StrategyKind, store: &TripleStore) -> Measures {
        match strategy.node_measure() {
            None => Measures::PoolLocal,
            Some(measure) => Measures::Global(build(measure, store, 1)),
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
/// superlinear triangle/coefficient/squares tables, and concurrent first
/// lookups wait for one build. The lookup that builds counts on
/// `discover.cache.measures_miss`, every other one on
/// `discover.cache.measures_hit`. A build here runs on the calling thread.
///
/// Pool-local strategies (UNIFORM RANDOM, ENTITY FREQUENCY) have no global
/// table and count neither.
pub fn cached_measures(strategy: StrategyKind, store: &TripleStore) -> Arc<Measures> {
    lookup(strategy, store, 1)
}

/// [`cached_measures`] for discovery: a square-clustering build spreads
/// over `threads` fan-out chunks (see the module docs). Not called from
/// inside a chunk.
pub(crate) fn lookup(strategy: StrategyKind, store: &TripleStore, threads: usize) -> Arc<Measures> {
    let Some(measure) = strategy.node_measure() else {
        return Arc::new(Measures::PoolLocal);
    };
    let mut built = false;
    let table = store.node_measure(measure, || {
        built = true;
        build(measure, store, threads)
    });
    kgfd_obs::counter(if built {
        "discover.cache.measures_miss"
    } else {
        "discover.cache.measures_hit"
    })
    .inc();
    Arc::new(Measures::Global(Arc::clone(table)))
}

/// Runs the graph algorithm behind `measure` on `store`; only square
/// clustering uses more than one of the `threads`. A table is copied into
/// its `Arc` while the adjacency is still allocated: made after the
/// adjacency is freed, the copy left a hole in the heap that raised the
/// peak RSS of `kgfd discover --strategy cs` on FB15K-237 ×6 by ~0.4 MiB
/// (glibc malloc).
fn build(measure: NodeMeasure, store: &TripleStore, threads: usize) -> Arc<[f64]> {
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
        NodeMeasure::SquareClustering => square_clustering_table(&adj(), threads),
    }
}

/// The square clustering coefficient of every node, one pool job per range
/// of [`balanced_ranges`] (inline when there is one range).
fn square_clustering_table(adj: &UndirectedAdjacency, threads: usize) -> Arc<[f64]> {
    let ranges = balanced_ranges(&squares_work(adj), threads);
    let parts = kgfd_pool::fan_out(ranges.len(), &ranges, |_, chunk| {
        chunk
            .iter()
            .flat_map(Range::clone)
            .map(|v| square_clustering_of(adj, EntityId(v as u32)))
            .collect::<Vec<f64>>()
    })
    .expect("the square clustering kernel does not panic on a valid adjacency");
    parts.concat().into()
}

/// Estimated cost of each node's square clustering: `(d_v − 1) · Σ_{u ∈
/// N(v)} d_u`, the summed length of the sorted merges over its neighbour
/// pairs, in one O(E) pass over the degrees. Nodes of degree below 2 cost 0.
fn squares_work(adj: &UndirectedAdjacency) -> Vec<u64> {
    (0..adj.num_nodes() as u32)
        .map(|v| {
            let neighbors = adj.neighbors(EntityId(v));
            let reach: u64 = neighbors
                .iter()
                .map(|&u| adj.degree(EntityId(u)) as u64)
                .sum();
            (neighbors.len() as u64)
                .saturating_sub(1)
                .saturating_mul(reach)
        })
        .collect()
}

/// Cuts `0..work.len()` into at most `threads` contiguous, non-empty ranges
/// in order, of about equal total `work` (not equal length: hubs cluster at
/// low ids). Range `k` starts at the first node before which the running
/// total reaches `k / threads` of the whole, so no range holds more than
/// `total / threads` plus the largest single node's work. Zero total work
/// gives one range.
fn balanced_ranges(work: &[u64], threads: usize) -> Vec<Range<usize>> {
    // More ranges than nodes could only add empty ones.
    let parts = threads.clamp(1, work.len().max(1));
    let total: u128 = work.iter().map(|&w| u128::from(w)).sum();
    let mut starts = Vec::with_capacity(parts + 1);
    let mut before = 0u128;
    for (v, &w) in work.iter().enumerate() {
        while starts.len() < parts && before * parts as u128 >= starts.len() as u128 * total {
            starts.push(v);
        }
        before += u128::from(w);
    }
    starts.push(work.len());
    starts
        .windows(2)
        .map(|pair| pair[0]..pair[1])
        .filter(|range| !range.is_empty())
        .collect()
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

    /// Asserts the contract of [`balanced_ranges`] on `work` at `threads`.
    fn assert_balanced(work: &[u64], threads: usize) {
        let ranges = balanced_ranges(work, threads);
        assert!(ranges.len() <= threads.max(1), "{ranges:?} at {threads}");
        let mut next = 0;
        for range in &ranges {
            assert_eq!(range.start, next, "{ranges:?} is not contiguous");
            assert!(!range.is_empty(), "{ranges:?} has an empty range");
            next = range.end;
        }
        assert_eq!(
            next,
            work.len(),
            "{ranges:?} does not cover 0..{}",
            work.len()
        );
        let total: u64 = work.iter().sum();
        let largest = work.iter().copied().max().unwrap_or(0);
        for range in &ranges {
            let held: u64 = work[range.clone()].iter().sum();
            assert!(
                held <= total / threads.max(1) as u64 + largest,
                "{range:?} holds {held} of {total} at {threads} threads: {ranges:?}"
            );
        }
    }

    #[test]
    fn balanced_ranges_split_by_work_not_by_count() {
        // Hubs at low ids, as in the generated graphs: the first quarter of
        // the nodes holds most of the work.
        let hubs: Vec<u64> = (0..400u64).map(|v| 1_000_000 / (v + 1)).collect();
        let ranges = balanced_ranges(&hubs, 2);
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].len() < 20, "the hub range is {:?}", ranges[0]);
        // A fixed pseudo-random mix with zero-work runs and one giant node.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mixed: Vec<u64> = (0..257)
            .map(|v| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match (v, state % 3) {
                    (100, _) => 50_000,
                    (_, 0) => 0,
                    _ => state % 1_000,
                }
            })
            .collect();
        for work in [
            &hubs[..],
            &mixed[..],
            &[5, 5, 5, 5],
            &[90, 5, 5],
            &[0, 0, 7],
        ] {
            for threads in 1..=9 {
                assert_balanced(work, threads);
            }
        }
    }

    #[test]
    fn balanced_ranges_edge_cases() {
        // No nodes: no range, so no job.
        assert!(balanced_ranges(&[], 4).is_empty());
        // Only isolated nodes: no work to split, one range.
        assert_eq!(balanced_ranges(&[0; 5], 4), vec![0..5]);
        // Fewer nodes than threads: one node per range at most.
        assert_eq!(balanced_ranges(&[3, 1], 8), vec![0..1, 1..2]);
        assert_eq!(balanced_ranges(&[3], 8), vec![0..1]);
        // Thread counts of 0 and 1 keep every node in one range.
        assert_eq!(balanced_ranges(&[3, 1, 2], 0), vec![0..3]);
        assert_eq!(balanced_ranges(&[3, 1, 2], 1), vec![0..3]);
    }

    #[test]
    fn squares_work_is_the_pairwise_merge_cost() {
        // Node 1 has neighbours {0, 2, 4} of degrees 2, 2, 1 in the square
        // 0-1-2-3 with pendant 4: (3 - 1) · 5 = 10.
        let triples = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]
            .iter()
            .map(|&(a, b)| Triple::new(a, 0u32, b))
            .collect();
        let store = TripleStore::new(6, 1, triples).unwrap();
        let work = squares_work(&UndirectedAdjacency::from_store(&store));
        assert_eq!(work, vec![5, 10, 5, 4, 0, 0]);
    }

    #[test]
    fn square_clustering_table_is_thread_invariant() {
        // Denser at low ids, like the generated graphs' hubs.
        let mut triples = Vec::new();
        for v in 0..60u32 {
            for step in [1, 7, 13] {
                if v % step == 0 {
                    triples.push(Triple::new(v / step, 0u32, (v * 5 + step) % 60));
                }
            }
        }
        let store = TripleStore::new(60, 1, triples).unwrap();
        let adj = UndirectedAdjacency::from_store(&store);
        let bits = |threads| -> Vec<u64> {
            square_clustering_table(&adj, threads)
                .iter()
                .map(|c| c.to_bits())
                .collect()
        };
        let serial = bits(1);
        let reference: Vec<u64> = kgfd_graph_stats::square_clustering_coefficients(&adj)
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(serial, reference);
        assert!(serial.iter().any(|&b| f64::from_bits(b) > 0.0));
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(bits(threads), serial, "differs at {threads} threads");
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
