//! Index of *known-true* triples used by the filtered ranking protocol.
//!
//! When ranking a triple against its corruptions, the standard filtered
//! setting (Bordes et al., as adopted by the paper) removes corruptions that
//! are themselves known to be true — in the training, validation, or test
//! split — so a model is not penalized for ranking another true triple high.
//!
//! # Layout
//!
//! Each side of the index is one flat CSR table whose rows are keyed by the
//! entity a query fixes: the subject for [`KnownTriples::true_objects`], the
//! object for [`KnownTriples::true_subjects`]. Row `e` is the range
//! `offsets[e]..offsets[e + 1]` of two parallel columns, `relations` and
//! `entities`, sorted by `(relation, entity)` and deduplicated. A lookup
//! reads the row's bounds, binary-searches the row's relation column for
//! the run of `r`, and returns that run of the entity column, which is
//! sorted and duplicate-free by construction: no hashing and no allocation
//! per key.
//!
//! The build is a counting sort on the row entity (one pass counts each
//! row's length, a second scatters every triple into its row), followed by
//! a sort of each row on its own. A side costs three flat `Vec`s: 8 bytes
//! per distinct triple plus one offset per entity up to the largest id,
//! which [`crate::Vocabulary`] interning keeps dense.

use crate::{EntityId, RelationId, Triple};

/// Merged `(s, r) → {o}` and `(r, o) → {s}` lookups over any number of splits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KnownTriples {
    /// Rows keyed by subject, holding `(relation, object)` pairs.
    objects_of: Csr,
    /// Rows keyed by object, holding `(relation, subject)` pairs.
    subjects_of: Csr,
    len: usize,
}

impl KnownTriples {
    /// Builds the index from one or more triple slices (e.g. train+valid+test).
    pub fn from_slices<'a>(slices: impl IntoIterator<Item = &'a [Triple]>) -> Self {
        let slices: Vec<&[Triple]> = slices.into_iter().collect();
        KnownTriples {
            objects_of: Csr::build(&slices, |t| (t.subject, t.relation, t.object)),
            subjects_of: Csr::build(&slices, |t| (t.object, t.relation, t.subject)),
            len: slices.iter().map(|s| s.len()).sum(),
        }
    }

    /// Known true objects `o` such that `(s, r, o)` is a known triple,
    /// ascending and without duplicates.
    pub fn true_objects(&self, s: EntityId, r: RelationId) -> &[EntityId] {
        self.objects_of.lookup(s, r)
    }

    /// Known true subjects `s` such that `(s, r, o)` is a known triple,
    /// ascending and without duplicates.
    pub fn true_subjects(&self, r: RelationId, o: EntityId) -> &[EntityId] {
        self.subjects_of.lookup(o, r)
    }

    /// O(log n) membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.true_objects(t.subject, t.relation)
            .binary_search(&t.object)
            .is_ok()
    }

    /// Number of (non-distinct) insertions; useful for sanity checks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One side of the index (see the module docs): row `e` holds the
/// `(relation, entity)` pairs of the triples whose row entity is `e`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Csr {
    /// `offsets[e]..offsets[e + 1]` delimits row `e`; empty when no triple
    /// was inserted.
    offsets: Vec<usize>,
    /// Relation of each pair; ascending within a row.
    relations: Vec<RelationId>,
    /// Entity of each pair; ascending within a row's run of one relation.
    entities: Vec<EntityId>,
}

impl Csr {
    /// `key` maps a triple to `(row entity, relation, entity)`.
    fn build(
        slices: &[&[Triple]],
        key: impl Fn(&Triple) -> (EntityId, RelationId, EntityId),
    ) -> Csr {
        let keys = || slices.iter().flat_map(|s| s.iter()).map(&key);
        let rows = keys().map(|(e, _, _)| e.index() + 1).max().unwrap_or(0);

        // Counting sort on the row entity: row lengths, then their prefix
        // sums as row starts.
        let mut offsets = vec![0usize; rows + 1];
        for (e, _, _) in keys() {
            offsets[e.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Scatter each pair into its row, packed as `relation << 32 | entity`
        // so one integer sort orders a row by `(relation, entity)`. Once the
        // scatter is done, `ends[e]` is where row `e` stops.
        let mut ends = offsets.clone();
        let mut packed = vec![0u64; offsets[rows]];
        for (e, r, x) in keys() {
            let slot = &mut ends[e.index()];
            packed[*slot] = u64::from(r.0) << 32 | u64::from(x.0);
            *slot += 1;
        }

        // Sort each row and drop its duplicates, compacting the columns and
        // moving the row bounds down as rows shrink.
        let mut relations = Vec::with_capacity(packed.len());
        let mut entities = Vec::with_capacity(packed.len());
        let mut start = 0;
        for e in 0..rows {
            let row = &mut packed[start..ends[e]];
            row.sort_unstable();
            for (i, &pair) in row.iter().enumerate() {
                if i == 0 || row[i - 1] != pair {
                    relations.push(RelationId((pair >> 32) as u32));
                    entities.push(EntityId(pair as u32));
                }
            }
            start = ends[e];
            offsets[e + 1] = entities.len();
        }
        relations.shrink_to_fit();
        entities.shrink_to_fit();
        Csr {
            offsets,
            relations,
            entities,
        }
    }

    /// The entities paired with relation `r` in row `e`; empty for a row
    /// past the largest inserted id.
    fn lookup(&self, e: EntityId, r: RelationId) -> &[EntityId] {
        let Some(&[start, end]) = self.offsets.get(e.index()..e.index() + 2) else {
            return &[];
        };
        let row = &self.relations[start..end];
        let lo = row.partition_point(|&x| x < r);
        let hi = lo + row[lo..].partition_point(|&x| x == r);
        &self.entities[start + lo..start + hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_multiple_splits() {
        let train = [Triple::new(0u32, 0u32, 1u32), Triple::new(0u32, 0u32, 2u32)];
        let test = [Triple::new(3u32, 0u32, 2u32)];
        let k = KnownTriples::from_slices([&train[..], &test[..]]);
        assert_eq!(
            k.true_objects(EntityId(0), RelationId(0)),
            &[EntityId(1), EntityId(2)]
        );
        assert_eq!(
            k.true_subjects(RelationId(0), EntityId(2)),
            &[EntityId(0), EntityId(3)]
        );
        assert!(k.contains(&Triple::new(3u32, 0u32, 2u32)));
        assert!(!k.contains(&Triple::new(3u32, 0u32, 1u32)));
    }

    #[test]
    fn duplicate_triples_dedup_in_lookup() {
        let a = [Triple::new(0u32, 0u32, 1u32)];
        let b = [Triple::new(0u32, 0u32, 1u32)];
        let k = KnownTriples::from_slices([&a[..], &b[..]]);
        assert_eq!(k.true_objects(EntityId(0), RelationId(0)).len(), 1);
        assert_eq!(k.len(), 2, "len counts raw insertions");
    }

    #[test]
    fn missing_keys_yield_empty_slices() {
        let k = KnownTriples::from_slices(std::iter::empty::<&[Triple]>());
        assert!(k.is_empty());
        assert!(k.true_objects(EntityId(0), RelationId(0)).is_empty());
        assert!(k.true_subjects(RelationId(0), EntityId(0)).is_empty());
    }
}
