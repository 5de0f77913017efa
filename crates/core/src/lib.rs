//! # fact-discovery — discovering facts from knowledge graph embeddings
//!
//! A from-scratch Rust implementation of the fact-discovery system evaluated
//! in *"Evaluation of Sampling Methods for Discovering Facts from Knowledge
//! Graph Embeddings"* (EDBT 2024): given only a knowledge graph and a KGE
//! model trained on it — no queries, no test data — find triples in the
//! graph's complement that the model considers highly plausible.
//!
//! The exhaustive alternative is hopeless (`|E|² × |R| − |G|` candidates;
//! ~533 × 10⁹ for YAGO3-10). Instead, [`discover_facts`] implements the
//! paper's Algorithm 1: per relation, *sample* subject/object entities with
//! one of six [`StrategyKind`] weightings, mesh-grid them into candidates,
//! and keep those the model ranks within `top_n` of their corruptions.
//!
//! ```
//! use kgfd_datasets::toy_biomedical;
//! use kgfd_embed::{train, ModelKind, TrainConfig};
//! use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
//!
//! let data = toy_biomedical();
//! let (model, _) = train(ModelKind::ComplEx, &data.train,
//!                        &TrainConfig { epochs: 30, ..TrainConfig::default() });
//! let config = DiscoveryConfig {
//!     strategy: StrategyKind::EntityFrequency,
//!     top_n: 10,
//!     max_candidates: 50,
//!     ..DiscoveryConfig::default()
//! };
//! let report = discover_facts(model.as_ref(), &data.train, &config);
//! for fact in &report.facts {
//!     assert!(!data.train.contains(&fact.triple)); // all facts are novel
//! }
//! println!("{} facts, MRR {:.3}", report.facts.len(), report.mrr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod discover;
mod measures;
mod pruning;
mod report;
mod sampler;
mod strategy;
pub mod streaming;
mod weights;

pub use discover::{discover_facts, try_discover_facts, DiscoveryConfig, MAX_ITERATIONS};
pub use measures::{cached_measures, Measures};
pub use pruning::CandidateRules;
pub use report::{DiscoveredFact, DiscoveryReport, RelationBreakdown};
pub use sampler::AliasSampler;
pub use strategy::StrategyKind;
pub use streaming::{fact_order, CandidateStream, TopKFacts};
pub use weights::{compute_weights, normalize_or_uniform, validate_weights};
