//! # kgfd-kg — knowledge graph substrate
//!
//! The foundation shared by every crate of the `fact-discovery` workspace:
//! compact triple representation, interned vocabularies, an indexed
//! [`TripleStore`], benchmark-style [`Dataset`] splits, the filtered-ranking
//! [`KnownTriples`] index, and TSV i/o.
//!
//! All graph algorithms in the workspace operate on dense integer ids
//! ([`EntityId`], [`RelationId`]); the [`Vocabulary`] keeps labels.
//!
//! ```
//! use kgfd_kg::{Triple, TripleStore};
//!
//! let store = TripleStore::new(3, 1, vec![
//!     Triple::new(0u32, 0u32, 1u32),
//!     Triple::new(1u32, 0u32, 2u32),
//! ]).unwrap();
//! assert_eq!(store.len(), 2);
//! assert!(store.contains(&Triple::new(0u32, 0u32, 1u32)));
//! // Candidate space of exhaustive fact discovery:
//! assert_eq!(store.complement_size(), 3 * 3 * 1 - 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod filter;
mod ids;
mod io;
mod split;
mod store;
mod triple;
mod vocab;

pub use error::{KgError, Result};
pub use filter::KnownTriples;
pub use ids::{EntityId, RelationId};
pub use io::{read_triples_tsv, write_triples_tsv};
pub use split::{Dataset, DatasetMetadata};
pub use store::{NodeMeasure, SideIndex, TripleStore};
pub use triple::{Side, Triple};
pub use vocab::Vocabulary;
