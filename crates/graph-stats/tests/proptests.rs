//! Property-based tests of the graph analytics invariants.
#![allow(clippy::needless_range_loop)]

use kgfd_graph_stats::{
    average_clustering, local_clustering_coefficients, local_triangle_counts, occurrence_degrees,
    simple_degrees, square_clustering_coefficients, total_triangles, Histogram,
    UndirectedAdjacency,
};
use kgfd_kg::{EntityId, Triple, TripleStore};
use proptest::prelude::*;
use std::collections::HashSet;

const N: u32 = 10;
const K: u32 = 3;

fn arb_store() -> impl Strategy<Value = TripleStore> {
    proptest::collection::vec((0..N, 0..K, 0..N), 0..80).prop_map(|raw| {
        let triples = raw
            .into_iter()
            .map(|(s, r, o)| Triple::new(s, r, o))
            .collect();
        TripleStore::new(N as usize, K as usize, triples).unwrap()
    })
}

/// Reference triangle counts: each edge `(v, u)` contributes the common
/// neighbours of `v` and `u`, found by hash-set membership instead of the
/// sorted-list intersection `local_triangle_counts` uses.
fn triangles_hashset(adj: &UndirectedAdjacency) -> Vec<u64> {
    let n = adj.num_nodes();
    let sets: Vec<HashSet<u32>> = (0..n)
        .map(|v| adj.neighbors(EntityId(v as u32)).iter().copied().collect())
        .collect();
    let mut counts = vec![0u64; n];
    for v in 0..n {
        let mut twice = 0u64;
        for &u in adj.neighbors(EntityId(v as u32)) {
            let small = &sets[v.min(u as usize)];
            let large = &sets[v.max(u as usize)];
            twice += small.iter().filter(|x| large.contains(x)).count() as u64;
        }
        counts[v] = twice / 2;
    }
    counts
}

/// A transcription of `networkx.square_clustering` on hash sets, over the
/// store's simple undirected projection (self-loops dropped), built from the
/// triples rather than from `UndirectedAdjacency`:
///
/// ```python
/// for u, w in combinations(G[v], 2):
///     squares = len((set(G[u]) & set(G[w])) - {v})
///     clustering[v] += squares
///     degm = squares + 1
///     if w in G[u]:
///         degm += 1
///     potential += (len(G[u]) - degm) + (len(G[w]) - degm) + squares
/// if potential > 0:
///     clustering[v] /= potential
/// ```
///
/// The sums are integers, so one division gives the same bits as the
/// kernel's f64 accumulation.
fn square_clustering_networkx(store: &TripleStore) -> Vec<f64> {
    let n = store.num_entities();
    let mut graph: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    for t in store.triples() {
        if t.subject != t.object {
            graph[t.subject.index()].insert(t.object.0);
            graph[t.object.index()].insert(t.subject.0);
        }
    }
    (0..n)
        .map(|v| {
            let neighbors: Vec<u32> = graph[v].iter().copied().collect();
            let (mut clustering, mut potential) = (0i64, 0i64);
            for (i, &u) in neighbors.iter().enumerate() {
                for &w in &neighbors[i + 1..] {
                    let (gu, gw) = (&graph[u as usize], &graph[w as usize]);
                    let squares = gu.intersection(gw).filter(|&&x| x as usize != v).count() as i64;
                    clustering += squares;
                    let degm = squares + 1 + i64::from(gu.contains(&w));
                    potential += (gu.len() as i64 - degm) + (gw.len() as i64 - degm) + squares;
                }
            }
            if potential > 0 {
                clustering as f64 / potential as f64
            } else {
                0.0
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn square_clustering_matches_networkx_bit_for_bit(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        let bits = |values: Vec<f64>| values.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(square_clustering_coefficients(&adj)),
            bits(square_clustering_networkx(&store))
        );
    }

    #[test]
    fn triangle_counts_match_the_hashset_reference(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        prop_assert_eq!(local_triangle_counts(&adj), triangles_hashset(&adj));
    }

    #[test]
    fn adjacency_is_symmetric_and_loop_free(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        for v in 0..N {
            let vid = kgfd_kg::EntityId(v);
            for &u in adj.neighbors(vid) {
                prop_assert_ne!(u, v, "self loops must be dropped");
                prop_assert!(adj.has_edge(kgfd_kg::EntityId(u), vid));
            }
        }
    }

    #[test]
    fn neighbor_lists_are_sorted_unique(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        for v in 0..N {
            let ns = adj.neighbors(kgfd_kg::EntityId(v));
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn triangle_counts_sum_is_divisible_by_three(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        let t = local_triangle_counts(&adj);
        let sum: u64 = t.iter().sum();
        prop_assert_eq!(sum % 3, 0);
        prop_assert_eq!(total_triangles(&t), sum / 3);
    }

    #[test]
    fn triangles_bounded_by_degree_pairs(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        let t = local_triangle_counts(&adj);
        for v in 0..N as usize {
            let d = adj.degree(kgfd_kg::EntityId(v as u32)) as u64;
            prop_assert!(t[v] <= d * d.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn clustering_coefficients_in_unit_interval(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        let c = local_clustering_coefficients(&adj);
        for &x in &c {
            prop_assert!((0.0..=1.0).contains(&x));
        }
        let avg = average_clustering(&c);
        prop_assert!((0.0..=1.0).contains(&avg));
    }

    #[test]
    fn square_coefficients_in_unit_interval(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        for x in square_clustering_coefficients(&adj) {
            prop_assert!((0.0..=1.0).contains(&x), "c4 = {x} out of range");
        }
    }

    #[test]
    fn occurrence_degrees_sum_to_twice_triples(store in arb_store()) {
        let d = occurrence_degrees(&store);
        prop_assert_eq!(d.iter().sum::<u64>(), 2 * store.len() as u64);
    }

    #[test]
    fn simple_degree_never_exceeds_occurrence_degree(store in arb_store()) {
        let adj = UndirectedAdjacency::from_store(&store);
        let simple = simple_degrees(&adj);
        let occ = occurrence_degrees(&store);
        for v in 0..N as usize {
            prop_assert!(simple[v] <= occ[v]);
        }
    }

    #[test]
    fn histogram_total_matches_input_len(values in proptest::collection::vec(0.0f64..1.0, 0..200)) {
        let h = Histogram::build(values.iter().copied(), 0.0, 1.0, 16);
        prop_assert_eq!(h.total, values.len() as u64);
        prop_assert_eq!(h.counts.iter().sum::<u64>(), values.len() as u64);
    }
}
