//! Square (cycle-of-4) clustering coefficient of Zhang et al. (paper Eq. 6).
//!
//! ```text
//!            Σ_{u<w ∈ N(v)} q_v(u, w)
//! c4(v) = ─────────────────────────────────
//!          Σ_{u<w ∈ N(v)} [a_v(u, w) + q_v(u, w)]
//! ```
//!
//! where `q_v(u, w)` is the number of common neighbours of `u` and `w`
//! other than `v` (each closes a square `v-u-x-w`), and
//! `a_v(u, w) = (k_u − (1 + q_v + θ_uw)) + (k_w − (1 + q_v + θ_uw))`
//! counts the potential-but-missing squares. `θ_uw = 1` iff `u` and `w` are
//! directly connected. (The paper prints `θ_uv` in the first term; the
//! source formula — Zhang et al. 2008, as implemented by
//! `networkx.square_clustering` — uses `θ_uw` in both, which we follow.)
//!
//! This is the strategy the paper *excludes* from the main grid because a
//! single run took ~54 hours (§4.3): per node the cost is quadratic in the
//! degree with a neighbourhood intersection inside, and
//! `kgfd repro --target squares` reproduces that blow-up on scaled data.

use crate::adjacency::{sorted_intersection_count, UndirectedAdjacency};
use kgfd_kg::EntityId;

/// Square clustering coefficient per node. Nodes with fewer than two
/// neighbours (no pair to close a square through) get 0.
pub fn square_clustering_coefficients(adj: &UndirectedAdjacency) -> Vec<f64> {
    (0..adj.num_nodes())
        .map(|v| square_clustering_of(adj, EntityId(v as u32)))
        .collect()
}

/// Square clustering coefficient of a single node.
pub fn square_clustering_of(adj: &UndirectedAdjacency, v: EntityId) -> f64 {
    let nv = adj.neighbors(v);
    if nv.len() < 2 {
        return 0.0;
    }
    let mut numerator = 0.0f64;
    let mut denominator = 0.0f64;
    for (i, &u) in nv.iter().enumerate() {
        let nu = adj.neighbors(EntityId(u));
        let ku = nu.len() as f64;
        for &w in &nv[i + 1..] {
            let nw = adj.neighbors(EntityId(w));
            let kw = nw.len() as f64;
            let mut q = sorted_intersection_count(nu, nw) as f64;
            // Exclude v itself from the common neighbours.
            if nu.binary_search(&v.0).is_ok() && nw.binary_search(&v.0).is_ok() {
                q -= 1.0;
            }
            let theta = if adj.has_edge(EntityId(u), EntityId(w)) {
                1.0
            } else {
                0.0
            };
            let a = (ku - (1.0 + q + theta)) + (kw - (1.0 + q + theta));
            numerator += q;
            denominator += a + q;
        }
    }
    if denominator <= 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::{Triple, TripleStore};

    fn adj_of(n: usize, edges: &[(u32, u32)]) -> UndirectedAdjacency {
        let triples = edges
            .iter()
            .map(|&(a, b)| Triple::new(a, 0u32, b))
            .collect();
        UndirectedAdjacency::from_store(&TripleStore::new(n, 1, triples).unwrap())
    }

    #[test]
    fn four_cycle_is_all_ones() {
        // C4: every pair of a node's two neighbours has exactly one common
        // neighbour besides v, and no unfulfilled square slots.
        let adj = adj_of(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for c in square_clustering_coefficients(&adj) {
            assert!((c - 1.0).abs() < 1e-12, "got {c}");
        }
    }

    #[test]
    fn triangle_has_zero_squares() {
        let adj = adj_of(3, &[(0, 1), (1, 2), (2, 0)]);
        for c in square_clustering_coefficients(&adj) {
            assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn path_has_zero_squares_but_nonzero_denominator() {
        // Path 0-1-2-3: node 1's neighbour pair (0,2) has no common
        // neighbour besides 1, but node 2 offers an open square slot.
        let adj = adj_of(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = square_clustering_coefficients(&adj);
        assert_eq!(c, vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pendant_nodes_are_zero() {
        let adj = adj_of(2, &[(0, 1)]);
        assert_eq!(square_clustering_coefficients(&adj), vec![0.0, 0.0]);
    }

    #[test]
    fn k4_matches_networkx_value() {
        // networkx.square_clustering(K4) = 1/3 for every node: each neighbour
        // pair (u,w) has q=1 (the fourth node), theta=1, k=3 →
        // a = (3-(1+1+1))·2 = 0 ... q/(q+a) per pair: 1/(1+0)=1? Let's
        // compute: per pair q=1, a=(3-3)+(3-3)=0 → ratio 1? No — networkx
        // K4 square clustering is 1.0? Verify by the formula directly:
        // numerator = 3 pairs × q=1 = 3; denominator = 3 × (0+1) = 3 → 1.0.
        let adj = adj_of(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for c in square_clustering_coefficients(&adj) {
            assert!((c - 1.0).abs() < 1e-12, "got {c}");
        }
    }

    #[test]
    fn open_square_lowers_coefficient() {
        // Square 0-1-2-3 plus pendant 4 on node 1: node 0's pair (1,3) still
        // closes via 2, but node 1 now has extra open slots through 4.
        let closed = adj_of(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let open = adj_of(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let c_closed = square_clustering_of(&closed, EntityId(1));
        let c_open = square_clustering_of(&open, EntityId(1));
        assert!(c_open < c_closed);
        assert!(c_open > 0.0);
    }
}
