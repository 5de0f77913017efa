//! Property-based tests of the knowledge-graph substrate invariants.

use kgfd_kg::{
    read_triples_tsv, write_triples_tsv, EntityId, KnownTriples, RelationId, Side, Triple,
    TripleStore, Vocabulary,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const N: u32 = 12;
const K: u32 = 4;

fn arb_triple() -> impl Strategy<Value = Triple> {
    (0..N, 0..K, 0..N).prop_map(|(s, r, o)| Triple::new(s, r, o))
}

fn arb_triples() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(arb_triple(), 0..120)
}

proptest! {
    #[test]
    fn store_len_counts_distinct_triples(triples in arb_triples()) {
        let store = TripleStore::new(N as usize, K as usize, triples.clone()).unwrap();
        let mut dedup = triples.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(store.len(), dedup.len());
    }

    #[test]
    fn store_contains_exactly_its_inputs(triples in arb_triples(), probe in arb_triple()) {
        let store = TripleStore::new(N as usize, K as usize, triples.clone()).unwrap();
        prop_assert_eq!(store.contains(&probe), triples.contains(&probe));
    }

    #[test]
    fn relation_slices_partition_the_store(triples in arb_triples()) {
        let store = TripleStore::new(N as usize, K as usize, triples).unwrap();
        let total: usize = (0..K)
            .map(|r| store.triples_of_relation(r.into()).len())
            .sum();
        prop_assert_eq!(total, store.len());
        for r in 0..K {
            for t in store.triples_of_relation(r.into()) {
                prop_assert_eq!(t.relation.0, r);
            }
        }
    }

    #[test]
    fn side_index_counts_sum_to_relation_size(triples in arb_triples()) {
        let store = TripleStore::new(N as usize, K as usize, triples).unwrap();
        for r in 0..K {
            let m = store.triples_of_relation(r.into()).len() as u64;
            prop_assert_eq!(store.subject_index(r.into()).total_count(), m);
            prop_assert_eq!(store.object_index(r.into()).total_count(), m);
        }
    }

    #[test]
    fn global_side_counts_sum_to_store_len(triples in arb_triples()) {
        let store = TripleStore::new(N as usize, K as usize, triples).unwrap();
        for side in Side::BOTH {
            let sum: u64 = store.global_side_counts(side).iter().map(|&c| c as u64).sum();
            prop_assert_eq!(sum, store.len() as u64);
        }
    }

    #[test]
    fn complement_plus_store_covers_all_triples(triples in arb_triples()) {
        let store = TripleStore::new(N as usize, K as usize, triples).unwrap();
        let all = (N as u128) * (N as u128) * (K as u128);
        prop_assert_eq!(store.complement_size() + store.len() as u128, all);
    }

    #[test]
    fn known_triples_agrees_with_membership(triples in arb_triples(), probe in arb_triple()) {
        let known = KnownTriples::from_slices([&triples[..]]);
        prop_assert_eq!(known.contains(&probe), triples.contains(&probe));
    }

    #[test]
    fn known_triples_object_lookup_is_complete(
        slices in proptest::collection::vec(arb_triples(), 1..4),
    ) {
        // Every triple of the first slice appears again in the last one, so
        // the input always has duplicates (across slices when there are two
        // or more).
        let mut slices = slices;
        let echo = slices[0].clone();
        slices.last_mut().expect("at least one slice").extend(echo);
        let known = KnownTriples::from_slices(slices.iter().map(Vec::as_slice));

        let mut objects: BTreeMap<(EntityId, RelationId), BTreeSet<EntityId>> = BTreeMap::new();
        let mut subjects: BTreeMap<(RelationId, EntityId), BTreeSet<EntityId>> = BTreeMap::new();
        for t in slices.iter().flatten() {
            objects.entry((t.subject, t.relation)).or_default().insert(t.object);
            subjects.entry((t.relation, t.object)).or_default().insert(t.subject);
        }
        // Every id the generator draws, ids above all of them, and the
        // largest id there is: lookups must match the reference exactly
        // (sorted, deduplicated, nothing extra) and be empty off the graph.
        for e in (0..N + 2).chain([u32::MAX]).map(EntityId) {
            for r in (0..K + 2).chain([u32::MAX]).map(RelationId) {
                let want: Vec<EntityId> =
                    objects.get(&(e, r)).into_iter().flatten().copied().collect();
                prop_assert_eq!(known.true_objects(e, r), &want[..]);
                let want: Vec<EntityId> =
                    subjects.get(&(r, e)).into_iter().flatten().copied().collect();
                prop_assert_eq!(known.true_subjects(r, e), &want[..]);
            }
        }
        prop_assert_eq!(known.len(), slices.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn tsv_roundtrip_preserves_triples(triples in arb_triples()) {
        let vocab = Vocabulary::synthetic(N as usize, K as usize);
        let mut buf = Vec::new();
        write_triples_tsv(&mut buf, &triples, &vocab).unwrap();
        let mut vocab2 = Vocabulary::new();
        let back = read_triples_tsv(&buf[..], &mut vocab2).unwrap();
        prop_assert_eq!(back.len(), triples.len());
        // Labels (not raw ids) must agree after re-interning.
        for (orig, re) in triples.iter().zip(&back) {
            prop_assert_eq!(
                vocab.entity_label(orig.subject),
                vocab2.entity_label(re.subject)
            );
            prop_assert_eq!(
                vocab.relation_label(orig.relation),
                vocab2.relation_label(re.relation)
            );
            prop_assert_eq!(
                vocab.entity_label(orig.object),
                vocab2.entity_label(re.object)
            );
        }
    }
}
