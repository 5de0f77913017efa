//! Inverse-relation test-leakage detection.
//!
//! FB15K and WN18 were superseded by FB15K-237 and WN18RR because test
//! triples `(o, r⁻¹, s)` could be answered by memorizing training triples
//! `(s, r, o)` (paper §4.1.2). This module provides the diagnostic (which
//! relation pairs are near-inverses of each other?) so synthetic datasets
//! can be audited the same way the community audited the originals.

use kgfd_kg::{RelationId, TripleStore};
use serde::{Deserialize, Serialize};

/// A detected (near-)inverse relation pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InversePair {
    /// The relation whose triples are mirrored.
    pub relation: RelationId,
    /// The relation mirroring it (may equal `relation` for symmetric ones).
    pub inverse: RelationId,
    /// Fraction of `relation`'s triples `(s, r, o)` with `(o, inverse, s)`
    /// present in the graph.
    pub overlap: f64,
}

/// Finds all ordered relation pairs `(r1, r2)` where at least `threshold`
/// of r1's triples are mirrored by r2. `r1 == r2` reports symmetry.
pub fn find_inverse_pairs(store: &TripleStore, threshold: f64) -> Vec<InversePair> {
    let mut pairs = Vec::new();
    for r1 in store.used_relations() {
        let triples = store.triples_of_relation(r1);
        if triples.is_empty() {
            continue;
        }
        for r2 in store.used_relations() {
            let mirrored = triples
                .iter()
                .filter(|t| store.contains(&t.inverted_as(r2)))
                .count();
            let overlap = mirrored as f64 / triples.len() as f64;
            if overlap >= threshold {
                pairs.push(InversePair {
                    relation: r1,
                    inverse: r2,
                    overlap,
                });
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::Triple;

    /// r0 = "parent_of", r1 = "child_of" (exact inverse), r2 = "sibling" (symmetric).
    fn leaky_store() -> TripleStore {
        let mut triples = Vec::new();
        for i in 0..5u32 {
            triples.push(Triple::new(i, 0u32, i + 5));
            triples.push(Triple::new(i + 5, 1u32, i));
        }
        triples.push(Triple::new(0u32, 2u32, 1u32));
        triples.push(Triple::new(1u32, 2u32, 0u32));
        TripleStore::new(10, 3, triples).unwrap()
    }

    #[test]
    fn detects_exact_inverse_pairs() {
        let pairs = find_inverse_pairs(&leaky_store(), 0.9);
        assert!(pairs
            .iter()
            .any(|p| p.relation == RelationId(0) && p.inverse == RelationId(1)));
        assert!(pairs
            .iter()
            .any(|p| p.relation == RelationId(1) && p.inverse == RelationId(0)));
    }

    #[test]
    fn detects_symmetric_relations_as_self_inverse() {
        let pairs = find_inverse_pairs(&leaky_store(), 0.9);
        assert!(pairs
            .iter()
            .any(|p| p.relation == RelationId(2) && p.inverse == RelationId(2)));
    }

    #[test]
    fn threshold_filters_weak_overlap() {
        let pairs = find_inverse_pairs(&leaky_store(), 1.01);
        assert!(pairs.is_empty());
    }
}
