//! The in-memory triple store with the indexes every downstream crate needs.
//!
//! Layout: triples are kept sorted by `(relation, subject, object)` with a
//! CSR-style offset table over relations, so "all triples of relation r" is a
//! contiguous slice. Membership is a hash set; per-relation unique
//! subject/object lists and per-side frequency counts are precomputed because
//! the sampling strategies of the paper (Section 3.1.2) consume them directly.
//! Tables derived from the whole graph follow one rule: each is built by
//! its first use, at most once per store, and freed with the store. They
//! are the filtered-ranking index ([`TripleStore::known`]) and the
//! per-entity measures behind the side-agnostic strategies
//! ([`TripleStore::node_measure`]).

use crate::{EntityId, KgError, KnownTriples, RelationId, Result, Side, Triple};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// A graph-global per-entity measure, one table per store (see
/// [`TripleStore::node_measure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeMeasure {
    /// Occurrences of the entity over all triples, either side.
    Degree,
    /// Triangles through the entity in the undirected graph.
    Triangles,
    /// Local clustering coefficient.
    ClusteringCoefficient,
    /// Square (C4) clustering coefficient.
    SquareClustering,
    /// PageRank.
    PageRank,
}

/// Unique entities appearing on one side of one relation, with their
/// occurrence counts. This is exactly the input of the paper's
/// `compute_weights()` for the side-aware strategies.
#[derive(Debug, Clone, Default)]
pub struct SideIndex {
    /// Distinct entities on this side, ascending by id.
    pub entities: Vec<EntityId>,
    /// `counts[i]` = number of triples in which `entities[i]` occupies this side.
    pub counts: Vec<u32>,
}

impl SideIndex {
    /// Number of distinct entities on this side.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// `true` if no entity ever appears on this side.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Total number of occurrences (equals the relation's triple count).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }
}

/// An immutable, fully indexed knowledge graph.
#[derive(Debug, Clone)]
pub struct TripleStore {
    num_entities: usize,
    num_relations: usize,
    /// All triples, sorted by `(relation, subject, object)`, deduplicated.
    triples: Vec<Triple>,
    /// `relation_offsets[r]..relation_offsets[r+1]` delimits relation `r`'s slice.
    relation_offsets: Vec<usize>,
    membership: HashSet<Triple>,
    /// Per-relation subject-side index.
    subjects: Vec<SideIndex>,
    /// Per-relation object-side index.
    objects: Vec<SideIndex>,
    /// Filter index over `triples`, built by the first [`TripleStore::known`]
    /// call. The store is immutable, so it never goes stale.
    known: OnceLock<KnownTriples>,
    /// One slot per [`NodeMeasure`], indexed by discriminant and filled by
    /// the first [`TripleStore::node_measure`] call for it.
    node_measures: [OnceLock<Arc<[f64]>>; 5],
}

impl TripleStore {
    /// Builds a store from triples. Duplicates are removed; ids are validated
    /// against the declared entity/relation counts.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        mut triples: Vec<Triple>,
    ) -> Result<Self> {
        for t in &triples {
            if t.subject.index() >= num_entities {
                return Err(KgError::UnknownEntity(t.subject.0));
            }
            if t.object.index() >= num_entities {
                return Err(KgError::UnknownEntity(t.object.0));
            }
            if t.relation.index() >= num_relations {
                return Err(KgError::UnknownRelation(t.relation.0));
            }
        }
        triples.sort_unstable();
        triples.dedup();

        let membership: HashSet<Triple> = triples.iter().copied().collect();

        let mut relation_offsets = Vec::with_capacity(num_relations + 1);
        relation_offsets.push(0);
        let mut cursor = 0usize;
        for r in 0..num_relations {
            while cursor < triples.len() && triples[cursor].relation.index() == r {
                cursor += 1;
            }
            relation_offsets.push(cursor);
        }

        let mut subjects = Vec::with_capacity(num_relations);
        let mut objects = Vec::with_capacity(num_relations);
        for r in 0..num_relations {
            let slice = &triples[relation_offsets[r]..relation_offsets[r + 1]];
            subjects.push(build_side_index(slice, Side::Subject));
            objects.push(build_side_index(slice, Side::Object));
        }

        Ok(TripleStore {
            num_entities,
            num_relations,
            triples,
            relation_offsets,
            membership,
            subjects,
            objects,
            known: OnceLock::new(),
            node_measures: Default::default(),
        })
    }

    /// Number of entities in the vocabulary (not just those used in triples).
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relation types in the vocabulary.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Total number of (distinct) triples, `M = |G|` in the paper.
    #[inline]
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// `true` if the graph holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, t: &Triple) -> bool {
        self.membership.contains(t)
    }

    /// All triples, sorted by `(relation, subject, object)`.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The filtered-ranking index over this graph's triples, equal to
    /// `KnownTriples::from_slices([self.triples()])`. Built once, by the
    /// first call, and shared by every later one: discovery runs and served
    /// requests against the same store filter through one index.
    pub fn known(&self) -> &KnownTriples {
        self.known
            .get_or_init(|| KnownTriples::from_slices([self.triples()]))
    }

    /// The per-entity table of `measure` over this graph. `build` runs only
    /// in the first call; concurrent first calls wait for that one build,
    /// and every call shares its table. This crate holds no graph
    /// algorithms, so the caller supplies the build.
    pub fn node_measure(
        &self,
        measure: NodeMeasure,
        build: impl FnOnce() -> Arc<[f64]>,
    ) -> &Arc<[f64]> {
        self.node_measures[measure as usize].get_or_init(build)
    }

    /// The table of `measure` if it is built, without building or waiting.
    pub fn built_node_measure(&self, measure: NodeMeasure) -> Option<&Arc<[f64]>> {
        self.node_measures[measure as usize].get()
    }

    /// The contiguous slice of triples with relation `r`.
    pub fn triples_of_relation(&self, r: RelationId) -> &[Triple] {
        let i = r.index();
        &self.triples[self.relation_offsets[i]..self.relation_offsets[i + 1]]
    }

    /// Relations that actually occur in at least one triple, ascending.
    pub fn used_relations(&self) -> Vec<RelationId> {
        (0..self.num_relations)
            .filter(|&r| self.relation_offsets[r + 1] > self.relation_offsets[r])
            .map(|r| RelationId(r as u32))
            .collect()
    }

    /// Subject-side index (unique entities + counts) of relation `r`.
    pub fn subject_index(&self, r: RelationId) -> &SideIndex {
        &self.subjects[r.index()]
    }

    /// Object-side index (unique entities + counts) of relation `r`.
    pub fn object_index(&self, r: RelationId) -> &SideIndex {
        &self.objects[r.index()]
    }

    /// Side index of relation `r` on the given side.
    pub fn side_index(&self, r: RelationId, side: Side) -> &SideIndex {
        match side {
            Side::Subject => self.subject_index(r),
            Side::Object => self.object_index(r),
        }
    }

    /// Occurrence count of each entity across the whole graph on the given
    /// side (graph-global, unlike the per-relation [`SideIndex`]).
    pub fn global_side_counts(&self, side: Side) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_entities];
        for t in &self.triples {
            counts[side.of(*t).index()] += 1;
        }
        counts
    }

    /// Size of the complement graph `|E|² × |R| − |G|`, the candidate space an
    /// exhaustive fact-discovery approach would have to enumerate (paper §1).
    pub fn complement_size(&self) -> u128 {
        let n = self.num_entities as u128;
        let k = self.num_relations as u128;
        n * n * k - self.triples.len() as u128
    }
}

fn build_side_index(slice: &[Triple], side: Side) -> SideIndex {
    let mut ids: Vec<EntityId> = slice.iter().map(|t| side.of(*t)).collect();
    ids.sort_unstable();
    let mut entities = Vec::new();
    let mut counts = Vec::new();
    for id in ids {
        if entities.last() == Some(&id) {
            *counts.last_mut().expect("counts parallel to entities") += 1;
        } else {
            entities.push(id);
            counts.push(1);
        }
    }
    SideIndex { entities, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        // 4 entities, 2 relations.
        // r0: (0,0,1), (0,0,2), (1,0,2)
        // r1: (2,1,3)
        TripleStore::new(
            4,
            2,
            vec![
                Triple::new(0u32, 0u32, 1u32),
                Triple::new(0u32, 0u32, 2u32),
                Triple::new(1u32, 0u32, 2u32),
                Triple::new(2u32, 1u32, 3u32),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_ids() {
        let err = TripleStore::new(2, 1, vec![Triple::new(5u32, 0u32, 0u32)]);
        assert!(matches!(err, Err(KgError::UnknownEntity(5))));
        let err = TripleStore::new(2, 1, vec![Triple::new(0u32, 3u32, 0u32)]);
        assert!(matches!(err, Err(KgError::UnknownRelation(3))));
    }

    #[test]
    fn duplicates_are_removed() {
        let s = TripleStore::new(
            2,
            1,
            vec![Triple::new(0u32, 0u32, 1u32), Triple::new(0u32, 0u32, 1u32)],
        )
        .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn membership_and_slices() {
        let s = store();
        assert!(s.contains(&Triple::new(1u32, 0u32, 2u32)));
        assert!(!s.contains(&Triple::new(1u32, 0u32, 3u32)));
        assert_eq!(s.triples_of_relation(RelationId(0)).len(), 3);
        assert_eq!(s.triples_of_relation(RelationId(1)).len(), 1);
    }

    #[test]
    fn known_index_is_built_once_over_the_triples() {
        let s = store();
        assert!(std::ptr::eq(s.known(), s.known()), "one index per store");
        assert_eq!(s.known(), &KnownTriples::from_slices([s.triples()]));
    }

    #[test]
    fn node_measure_is_built_once_per_store() {
        let s = store();
        assert!(s.built_node_measure(NodeMeasure::PageRank).is_none());
        let first = s.node_measure(NodeMeasure::PageRank, || vec![0.5; 4].into());
        let again = s.node_measure(NodeMeasure::PageRank, || unreachable!("built twice"));
        assert!(Arc::ptr_eq(first, again), "one table per store");
        assert_eq!(&first[..], &[0.5; 4]);
        let built = s.built_node_measure(NodeMeasure::PageRank);
        assert!(built.is_some_and(|t| Arc::ptr_eq(t, first)));
        // Each measure has its own slot.
        assert!(s.built_node_measure(NodeMeasure::Degree).is_none());
    }

    #[test]
    fn side_indexes_count_occurrences() {
        let s = store();
        let subj = s.subject_index(RelationId(0));
        assert_eq!(subj.entities, vec![EntityId(0), EntityId(1)]);
        assert_eq!(subj.counts, vec![2, 1]);
        assert_eq!(subj.total_count(), 3);

        let obj = s.object_index(RelationId(0));
        assert_eq!(obj.entities, vec![EntityId(1), EntityId(2)]);
        assert_eq!(obj.counts, vec![1, 2]);
    }

    #[test]
    fn global_side_counts_cover_all_relations() {
        let s = store();
        let subj = s.global_side_counts(Side::Subject);
        assert_eq!(subj, vec![2, 1, 1, 0]);
        let obj = s.global_side_counts(Side::Object);
        assert_eq!(obj, vec![0, 1, 2, 1]);
    }

    #[test]
    fn used_relations_skips_empty() {
        let s = TripleStore::new(2, 3, vec![Triple::new(0u32, 2u32, 1u32)]).unwrap();
        assert_eq!(s.used_relations(), vec![RelationId(2)]);
    }

    #[test]
    fn complement_size_matches_formula() {
        let s = store();
        // 4² × 2 − 4 = 28
        assert_eq!(s.complement_size(), 28);
    }

    #[test]
    fn yago_scale_complement_matches_paper_claim() {
        // Paper §1: YAGO3-10 with ~120K entities, 37 relations → ~533 × 10⁹ edges.
        let s = TripleStore::new(123_182, 37, vec![]).unwrap();
        let c = s.complement_size();
        assert!(c > 530_000_000_000 && c < 570_000_000_000, "got {c}");
    }
}
