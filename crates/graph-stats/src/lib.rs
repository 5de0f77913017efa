//! # kgfd-graph-stats — graph analytics for sampling strategies
//!
//! The structural node measures the paper's six sampling strategies are
//! built on (Section 3.1.2), computed on the undirected homogeneous
//! projection of the knowledge graph:
//!
//! * [`occurrence_degrees`] — GRAPH DEGREE (Eq. 3)
//! * [`local_triangle_counts`] — CLUSTERING TRIANGLES (Eq. 4)
//! * [`local_clustering_coefficients`] — CLUSTERING COEFFICIENT (Eq. 5)
//! * [`square_clustering_coefficients`] — CLUSTERING SQUARES (Eq. 6)
//!
//! plus the dataset-level density measures of the analysis sections
//! ([`average_clustering`], [`GraphSummary`]) and [`Histogram`] for the
//! distribution figures.
//!
//! ```
//! use kgfd_kg::{Triple, TripleStore};
//! use kgfd_graph_stats::{UndirectedAdjacency, local_triangle_counts};
//!
//! let store = TripleStore::new(3, 1, vec![
//!     Triple::new(0u32, 0u32, 1u32),
//!     Triple::new(1u32, 0u32, 2u32),
//!     Triple::new(2u32, 0u32, 0u32),
//! ]).unwrap();
//! let adj = UndirectedAdjacency::from_store(&store);
//! assert_eq!(local_triangle_counts(&adj), vec![1, 1, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod clustering;
mod components;
mod degree;
mod histogram;
mod pagerank;
mod squares;
mod summary;
mod triangles;

pub use adjacency::{sorted_intersection_count, UndirectedAdjacency};
pub use clustering::{
    average_clustering, clustering_from_triangles, global_transitivity,
    local_clustering_coefficients,
};
pub use components::{connected_components, ComponentSummary, UnionFind};
pub use degree::{avg_triples_per_entity, occurrence_degrees, simple_degrees};
pub use histogram::Histogram;
pub use pagerank::pagerank;
pub use squares::{square_clustering_coefficients, square_clustering_of};
pub use summary::{Descriptive, GraphSummary};
pub use triangles::{local_triangle_counts, total_triangles};
