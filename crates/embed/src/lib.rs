//! # kgfd-embed — knowledge graph embedding substrate
//!
//! A from-scratch, CPU-only reimplementation of the KGE stack the paper
//! builds on (LibKGE + the models of §2.1): scoring models with hand-derived
//! gradients ([`models`]), negative-sampling training ([`train`]) with Adam
//! ([`OptimizerKind`]), margin and cross-entropy losses ([`LossKind`]), and
//! binary persistence ([`save_model`] / [`load_model`]).
//!
//! Every model implements [`KgeModel`], whose batched `score_objects` /
//! `score_subjects` kernels are the primitive the evaluation protocol and
//! the fact-discovery ranking step consume.
//!
//! ```
//! use kgfd_datasets::toy_biomedical;
//! use kgfd_embed::{train, ModelKind, TrainConfig};
//!
//! let data = toy_biomedical();
//! let config = TrainConfig { epochs: 5, ..TrainConfig::default() };
//! let (model, stats) = train(ModelKind::TransE, &data.train, &config);
//! assert_eq!(stats.epoch_losses.len(), 5);
//! assert!(model.score(data.train.triples()[0]).is_finite());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod checkpoint;
mod loss;
pub mod math;
mod model;
pub mod models;
mod negative;
mod optim;
mod params;
mod persist;
mod trainer;

pub mod init;

pub use batch::kernel_path;
pub use checkpoint::{
    checkpoint_paths, config_fingerprint, read_checkpoint_file, resume_latest, write_checkpoint,
    CheckpointPolicy, ResumeReport, TrainCheckpoint, CHECKPOINT_VERSION,
};
pub use loss::{LossKind, PairLoss};
pub use model::{KgeModel, ModelConfig, ModelKind};
pub use models::new_model;
pub use negative::{CorruptSide, NegativeSampler};
pub use optim::{OptimizerKind, OptimizerState};
pub use params::{Gradients, ParamTable, Parameters, ENTITY_TABLE, RELATION_TABLE};
pub use persist::{
    crc32, load_model, read_model_file, save_model, write_model_file, FORMAT_VERSION,
};
pub use trainer::{
    negative_stream, train, StopSignal, TrainConfig, TrainConfigError, TrainOutcome, TrainSession,
    TrainStats, SHARD_SIZE,
};
