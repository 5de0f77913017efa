//! The `(subject, relation, object)` triple — the atom of a knowledge graph.

use crate::{EntityId, RelationId};
use serde::{Deserialize, Serialize};

/// A directed, labeled edge `(s, r, o)` of a knowledge graph.
///
/// Ordering is lexicographic on `(relation, subject, object)`, which groups
/// triples of the same relation together — the layout the per-relation
/// indexes of [`crate::TripleStore`] rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Triple {
    /// Subject (head) entity.
    pub subject: EntityId,
    /// Relation type.
    pub relation: RelationId,
    /// Object (tail) entity.
    pub object: EntityId,
}

impl Triple {
    /// Creates a triple from raw ids.
    #[inline]
    pub fn new(
        subject: impl Into<EntityId>,
        relation: impl Into<RelationId>,
        object: impl Into<EntityId>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            relation: relation.into(),
            object: object.into(),
        }
    }

    /// The triple with subject and object swapped and relation `r` replaced —
    /// the reciprocal triples ConvE-style training adds.
    #[inline]
    pub fn inverted_as(self, relation: RelationId) -> Self {
        Triple {
            subject: self.object,
            relation,
            object: self.subject,
        }
    }

    /// Returns the triple with the subject replaced (a "subject corruption").
    #[inline]
    pub fn with_subject(self, subject: EntityId) -> Self {
        Triple { subject, ..self }
    }

    /// Returns the triple with the object replaced (an "object corruption").
    #[inline]
    pub fn with_object(self, object: EntityId) -> Self {
        Triple { object, ..self }
    }

    /// `true` if the triple is a self-loop (`s == o`).
    #[inline]
    pub fn is_loop(self) -> bool {
        self.subject == self.object
    }

    /// Sort key grouping by relation first.
    #[inline]
    fn key(self) -> (u32, u32, u32) {
        (self.relation.0, self.subject.0, self.object.0)
    }
}

impl PartialOrd for Triple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Triple {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.subject, self.relation, self.object)
    }
}

/// Which side of a triple an entity occupies. The paper's ENTITY FREQUENCY
/// and UNIFORM RANDOM strategies keep subject- and object-side weights
/// separate; this enum names the side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The subject (head) position.
    Subject,
    /// The object (tail) position.
    Object,
}

impl Side {
    /// Both sides, in a fixed order.
    pub const BOTH: [Side; 2] = [Side::Subject, Side::Object];

    /// The opposite side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Subject => Side::Object,
            Side::Object => Side::Subject,
        }
    }

    /// The entity of `t` on this side.
    #[inline]
    pub fn of(self, t: Triple) -> EntityId {
        match self {
            Side::Subject => t.subject,
            Side::Object => t.object,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_raw_u32() {
        let t = Triple::new(1u32, 2u32, 3u32);
        assert_eq!(t.subject, EntityId(1));
        assert_eq!(t.relation, RelationId(2));
        assert_eq!(t.object, EntityId(3));
    }

    #[test]
    fn ordering_groups_by_relation() {
        let a = Triple::new(9u32, 0u32, 9u32);
        let b = Triple::new(0u32, 1u32, 0u32);
        assert!(a < b, "relation dominates the sort key");
    }

    #[test]
    fn corruption_constructors_replace_one_side() {
        let t = Triple::new(1u32, 2u32, 3u32);
        assert_eq!(t.with_subject(EntityId(7)), Triple::new(7u32, 2u32, 3u32));
        assert_eq!(t.with_object(EntityId(7)), Triple::new(1u32, 2u32, 7u32));
    }

    #[test]
    fn inverted_as_swaps_entities() {
        let t = Triple::new(1u32, 2u32, 3u32);
        let inv = t.inverted_as(RelationId(5));
        assert_eq!(inv, Triple::new(3u32, 5u32, 1u32));
    }

    #[test]
    fn side_selects_entity() {
        let t = Triple::new(1u32, 2u32, 3u32);
        assert_eq!(Side::Subject.of(t), EntityId(1));
        assert_eq!(Side::Object.of(t), EntityId(3));
        assert_eq!(Side::Subject.opposite(), Side::Object);
    }

    #[test]
    fn loop_detection() {
        assert!(Triple::new(4u32, 0u32, 4u32).is_loop());
        assert!(!Triple::new(4u32, 0u32, 5u32).is_loop());
    }

    #[test]
    fn triple_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }
}
