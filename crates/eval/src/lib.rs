//! # kgfd-eval — link-prediction evaluation protocol
//!
//! The standard evaluation machinery the paper relies on (§2.1 "Testing",
//! §3.3): both-side corruption [`ranking`](rank_triple), raw and *filtered*
//! settings, mean-tie rank resolution, MRR / Hits@k / mean-rank aggregation,
//! parallel whole-split evaluation ([`evaluate_ranking`]), per-relation
//! breakdowns and held-out discovery scoring.
//!
//! ```
//! use kgfd_datasets::toy_biomedical;
//! use kgfd_embed::{train, ModelKind, TrainConfig};
//! use kgfd_eval::evaluate_ranking;
//!
//! let data = toy_biomedical();
//! let (model, _) = train(ModelKind::DistMult, &data.train,
//!                        &TrainConfig { epochs: 10, ..TrainConfig::default() });
//! let known = data.known_triples();
//! let summary = evaluate_ranking(model.as_ref(), &data.test, Some(&known), 2);
//! assert!(summary.mrr >= 0.0 && summary.mrr <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod heldout;
mod metrics;
mod protocol;
mod ranking;

pub use batch::{BatchRankStats, BatchRanker};
pub use heldout::{score_against_held_out, HeldOutReport};
pub use metrics::{hits_at, mean_rank, mrr, RankingSummary};
pub use protocol::{evaluate_per_relation, evaluate_ranking, rank_all, PerRelationSummary};
pub use ranking::{rank_triple, rank_with_exclusions, RankScratch, TripleRanks};
