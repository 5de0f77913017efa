//! The mini-batch training loop, data-parallel and deterministic.
//!
//! Deterministic given a seed: triple order, negative samples, and
//! initialization all derive from `TrainConfig::seed`, so two runs of the
//! same configuration produce bit-identical models — a property the
//! integration tests assert.
//!
//! # Determinism contract (thread-count invariance)
//!
//! Training is additionally invariant under [`TrainConfig::threads`]: for a
//! fixed seed, `threads = 1` and `threads = N` produce bit-identical
//! embeddings and epoch losses. Three rules make this hold exactly, not
//! approximately:
//!
//! 1. **Fixed sharding.** Every mini-batch is cut into logical shards of
//!    [`SHARD_SIZE`] consecutive positives. The shard structure depends only
//!    on `batch_size` and the data — never on the thread count. Threads are
//!    merely the pool that consumes shards.
//! 2. **Index-derived RNG streams.** Each shard's negative sampling draws
//!    from its own generator, derived by [`negative_stream`] from
//!    `(seed, epoch, shard index)`. Which OS thread processes a shard is
//!    therefore irrelevant to what it samples.
//! 3. **Fixed reduction order.** Each shard accumulates gradients and loss
//!    into its own buffer; buffers are reduced into the batch gradient in
//!    ascending shard order on one thread. Floating-point accumulation
//!    order is thus a pure function of the shard structure.
//!
//! The differential suite in `tests/determinism.rs` locks the contract in.

use crate::optim::Adam;
use crate::{
    new_model, CorruptSide, Gradients, KgeModel, LossKind, ModelKind, NegativeSampler,
    OptimizerKind,
};
use kgfd_kg::{KgError, Triple, TripleStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Positives per logical shard. A fixed constant — the shard structure (and
/// with it the RNG stream assignment and gradient reduction order) must not
/// depend on [`TrainConfig::threads`], or determinism across thread counts
/// would break.
pub const SHARD_SIZE: usize = 16;

/// Hyperparameters of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Entity-embedding width.
    pub dim: usize,
    /// Number of passes over the training triples.
    pub epochs: usize,
    /// Positives per optimizer step. Must be at least 1
    /// (see [`TrainConfig::validate`]).
    pub batch_size: usize,
    /// Negative samples per positive.
    pub negatives: usize,
    /// Loss function.
    pub loss: LossKind,
    /// Optimizer: Adam, the paper's, with its learning rate.
    pub optimizer: OptimizerKind,
    /// Filter accidentally-true negatives against the training graph.
    pub filter_negatives: bool,
    /// Re-normalize entity embeddings to unit L2 after each step (the TransE
    /// original's constraint; harmless but unnecessary elsewhere).
    pub normalize_entities: bool,
    /// Self-adversarial negative weighting (Sun et al. 2019): weight each
    /// negative by `softmax(α · f(neg))` across its positive's negatives, so
    /// training focuses on the hardest corruptions. `None` = uniform.
    pub adversarial_temperature: Option<f32>,
    /// Seed controlling init, shuffling, and negative sampling.
    pub seed: u64,
    /// Worker threads each mini-batch is split across. Must be at least 1.
    /// Any value yields bit-identical results for a given seed (see the
    /// module docs); more threads only buy wall-clock speed. Defaults to
    /// [`kgfd_pool::default_threads`].
    pub threads: usize,
}

/// A [`TrainConfig`] that cannot be trained with, caught by
/// [`TrainConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainConfigError {
    /// `batch_size` was 0 — there would be no optimizer steps to take.
    ZeroBatchSize,
    /// `threads` was 0 — no worker could process a shard.
    ZeroThreads,
    /// `dim` was 0 — every model would be an empty embedding.
    ZeroDim,
}

impl std::fmt::Display for TrainConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainConfigError::ZeroBatchSize => f.write_str("batch_size must be at least 1"),
            TrainConfigError::ZeroThreads => f.write_str("threads must be at least 1"),
            TrainConfigError::ZeroDim => f.write_str("dim must be at least 1"),
        }
    }
}

impl std::error::Error for TrainConfigError {}

impl TrainConfig {
    /// Checks the configuration for values training cannot honour.
    ///
    /// `batch_size = 0` used to be silently clamped to 1 inside the loop;
    /// it is now rejected here so a misconfiguration surfaces as an error
    /// instead of training with a different effective hyperparameter.
    pub fn validate(&self) -> Result<(), TrainConfigError> {
        if self.batch_size == 0 {
            return Err(TrainConfigError::ZeroBatchSize);
        }
        if self.threads == 0 {
            return Err(TrainConfigError::ZeroThreads);
        }
        if self.dim == 0 {
            return Err(TrainConfigError::ZeroDim);
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            dim: 32,
            epochs: 30,
            batch_size: 128,
            negatives: 4,
            loss: LossKind::MarginRanking { margin: 1.0 },
            optimizer: OptimizerKind::Adam { lr: 0.01 },
            filter_negatives: true,
            normalize_entities: false,
            adversarial_temperature: None,
            seed: 0,
            threads: kgfd_pool::default_threads(),
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean per-pair loss of each epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainStats {
    /// Loss of the final epoch (`NaN` if no epochs ran).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// The negative-sampling generator of one logical shard.
///
/// Derived purely from `(seed, epoch, shard)` — never from the thread count
/// or any runtime state — so the stream a shard draws is a static property
/// of the run configuration. Distinct coordinates land on statistically
/// independent streams (two rounds of SplitMix64 mixing feed the xoshiro
/// state expansion).
pub fn negative_stream(seed: u64, epoch: u64, shard: u64) -> StdRng {
    let mut x = seed ^ splitmix64(epoch.wrapping_add(0x517C_C1B7_2722_0A95));
    x = splitmix64(x).wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    StdRng::seed_from_u64(splitmix64(x))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trains a fresh model of `kind` on `store`: a [`TrainSession`] run to
/// completion without checkpoints.
///
/// Models flagged [`KgeModel::reciprocal`] (ConvE) are trained on the
/// reciprocal-augmented triple set `(s, r, o) ∪ (o, r + K, s)` with
/// object-side corruption only, matching LibKGE's ConvE recipe; all others
/// use Bordes-style both-side corruption.
///
/// # Panics
///
/// Panics if `config` fails [`TrainConfig::validate`] (e.g. a zero
/// `batch_size`). Callers building configs from user input should validate
/// first and surface the error.
pub fn train(
    kind: ModelKind,
    store: &TripleStore,
    config: &TrainConfig,
) -> (Box<dyn KgeModel>, TrainStats) {
    let mut session = TrainSession::new(kind, store, config).unwrap_or_else(|e| panic!("{e}"));
    session
        .run(None, None)
        .expect("a run without a checkpoint policy writes nothing that can fail");
    session.into_model()
}

/// Per-shard accumulation buffers; workers never share these, and the main
/// thread reduces them in ascending shard order. The per-positive buffers
/// (negatives, their scores and weights) live here too, so a shard
/// allocates nothing once its buffers have grown to their largest batch.
struct ShardOutput {
    grads: Gradients,
    loss_sum: f64,
    pairs: u64,
    sampling: Duration,
    negatives: Vec<Triple>,
    scores: Vec<f32>,
    weights: Vec<f32>,
}

impl ShardOutput {
    fn new() -> Self {
        ShardOutput {
            grads: Gradients::new(),
            loss_sum: 0.0,
            pairs: 0,
            sampling: Duration::ZERO,
            negatives: Vec::new(),
            scores: Vec::new(),
            weights: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.grads.clear();
        self.loss_sum = 0.0;
        self.pairs = 0;
        self.sampling = Duration::ZERO;
    }
}

/// Scores and backpropagates one shard's positives against the frozen
/// per-batch model snapshot, accumulating into `out`.
#[allow(clippy::too_many_arguments)]
fn process_shard(
    model: &dyn KgeModel,
    shard: &[Triple],
    mut rng: StdRng,
    corrupt_side: CorruptSide,
    filter: Option<&TripleStore>,
    sampler: &NegativeSampler,
    config: &TrainConfig,
    out: &mut ShardOutput,
) {
    let ShardOutput {
        grads,
        loss_sum,
        pairs,
        sampling,
        negatives,
        scores,
        weights,
    } = out;
    for &pos in shard {
        let f_pos = model.score(pos);
        // Negatives are drawn before scoring (rather than interleaved)
        // so the sampling cost is measurable on its own; the RNG
        // stream is identical either way.
        let sample_start = Instant::now();
        negatives.clear();
        negatives.extend(
            (0..config.negatives).map(|_| sampler.corrupt(pos, corrupt_side, filter, &mut rng)),
        );
        *sampling += sample_start.elapsed();
        scores.clear();
        scores.extend(negatives.iter().map(|&neg| model.score(neg)));
        negative_weights(scores, config.adversarial_temperature, weights);
        for ((&neg, &f_neg), &w) in negatives.iter().zip(scores.iter()).zip(weights.iter()) {
            let pair = config.loss.pair(f_pos, f_neg);
            *loss_sum += (w * pair.value) as f64;
            *pairs += 1;
            if pair.d_pos != 0.0 {
                model.backward(pos, w * pair.d_pos, grads);
            }
            if pair.d_neg != 0.0 {
                model.backward(neg, w * pair.d_neg, grads);
            }
        }
    }
}

/// The reusable inside of the training loop: the augmented triple list
/// (whose order carries over between epochs — each epoch shuffles the
/// previous epoch's order), the negative sampler, and the per-shard scratch
/// buffers. One [`TrainerCore::run_epoch`] call is exactly one epoch;
/// [`TrainSession`] drives it for [`train`] and checkpointed runs alike,
/// which is what makes their results mutually bit-identical.
struct TrainerCore<'a> {
    store: &'a TripleStore,
    config: TrainConfig,
    /// Training triples (reciprocal-augmented for ConvE-style models),
    /// shuffled in place at the top of every epoch.
    triples: Vec<Triple>,
    corrupt_side: CorruptSide,
    sampler: NegativeSampler,
    /// Shard buffers and the batch accumulator outlive the epoch loop so
    /// their slabs are reused across batches.
    outputs: Vec<ShardOutput>,
    grads: Gradients,
}

impl<'a> TrainerCore<'a> {
    fn new(model: &dyn KgeModel, store: &'a TripleStore, config: &TrainConfig) -> Self {
        let reciprocal = model.reciprocal();
        let num_relations = model.num_relations() as u32;
        let mut triples: Vec<Triple> = store.triples().to_vec();
        if reciprocal {
            let inverses: Vec<Triple> = triples
                .iter()
                .map(|t| t.inverted_as((t.relation.0 + num_relations).into()))
                .collect();
            triples.extend(inverses);
        }
        let corrupt_side = if reciprocal {
            CorruptSide::Object
        } else {
            CorruptSide::Both
        };
        TrainerCore {
            store,
            config: config.clone(),
            triples,
            corrupt_side,
            sampler: NegativeSampler::new(store.num_entities()),
            outputs: Vec::new(),
            grads: Gradients::new(),
        }
    }

    /// Runs epoch number `epoch` (the index keys the shard RNG streams, so
    /// it must be the *absolute* epoch — a resumed session continues the
    /// numbering where the checkpoint left off).
    fn run_epoch(
        &mut self,
        model: &mut dyn KgeModel,
        optimizer: &mut Adam,
        rng: &mut StdRng,
        epoch: usize,
    ) -> f64 {
        let config = &self.config;
        let corrupt_side = self.corrupt_side;
        let sampler = &self.sampler;
        let triples = &mut self.triples;
        let outputs = &mut self.outputs;
        let grads = &mut self.grads;
        let filter = if config.filter_negatives {
            Some(self.store)
        } else {
            None
        };
        let threads = config.threads;
        // Trace-only (no event, no histogram): the per-epoch metrics below
        // already cover the event stream; this span exists to parent the
        // batch/shard tree in trace exports.
        let _epoch_span = kgfd_obs::span_traced!("embed.train.epoch", epoch = epoch);
        let epoch_start = Instant::now();
        triples.shuffle(rng);
        let mut loss_sum = 0.0f64;
        let mut pairs = 0u64;
        let mut worker_sampling = vec![Duration::ZERO; threads];
        // Shards are numbered consecutively across the epoch; the counter
        // (not the worker id) keys each shard's RNG stream.
        let mut next_stream = 0u64;
        for batch in triples.chunks(config.batch_size) {
            // Shard spans opened on the fan-out's threads nest under this
            // span too: every chunk runs under the caller's current span.
            let _batch_span = kgfd_obs::span_traced!("embed.train.batch");
            let shards: Vec<&[Triple]> = batch.chunks(SHARD_SIZE).collect();
            while outputs.len() < shards.len() {
                outputs.push(ShardOutput::new());
            }
            let outs = &mut outputs[..shards.len()];
            let first_stream = next_stream;
            next_stream += shards.len() as u64;

            let model_view: &dyn KgeModel = &*model;
            // Contiguous shard groups per job; group membership only affects
            // which thread runs a shard, never its stream or the reduction
            // order below. Each job reports its group's sampling time.
            let group_sampling = kgfd_pool::fan_out_mut(threads, outs, |first, group| {
                let mut sampling = Duration::ZERO;
                for (i, out) in group.iter_mut().enumerate() {
                    let shard = first + i;
                    out.clear();
                    let stream =
                        negative_stream(config.seed, epoch as u64, first_stream + shard as u64);
                    let shard_span = kgfd_obs::span_traced!("embed.train.shard", shard = shard);
                    let shard_start_us = kgfd_obs::clock_us();
                    process_shard(
                        model_view,
                        shards[shard],
                        stream,
                        corrupt_side,
                        filter,
                        sampler,
                        config,
                        out,
                    );
                    kgfd_obs::record_manual(
                        "embed.train.negative_sampling",
                        Some(shard_span.id()),
                        shard_start_us,
                        out.sampling.as_micros() as u64,
                    );
                    sampling += out.sampling;
                }
                sampling
            })
            .unwrap_or_else(|e| panic!("{e}"));
            for (slot, sampled) in worker_sampling.iter_mut().zip(group_sampling) {
                *slot += sampled;
            }

            // Reduce in ascending shard order — the fixed association that
            // keeps float sums identical for every thread count.
            grads.clear();
            for out in outs.iter() {
                grads.merge_from(&out.grads);
                loss_sum += out.loss_sum;
                pairs += out.pairs;
            }
            if grads.is_empty() {
                continue;
            }
            optimizer.step(model.params_mut(), grads, config.normalize_entities);
        }
        let mean_loss = if pairs == 0 {
            0.0
        } else {
            loss_sum / pairs as f64
        };

        let sampling: Duration = worker_sampling.iter().sum();
        let wall = epoch_start.elapsed();
        kgfd_obs::histogram("embed.train.epoch_duration_us").record(wall.as_micros() as f64);
        for slot in &worker_sampling {
            // One observation per worker slot per epoch: the histogram's
            // spread shows how evenly sampling cost lands across workers.
            kgfd_obs::histogram("embed.train.worker_negative_sampling_us")
                .record(slot.as_micros() as f64);
        }
        let epoch_fields = vec![
            kgfd_obs::Field::new("epoch", epoch),
            kgfd_obs::Field::new("threads", threads),
        ];
        kgfd_obs::metric("embed.train.epoch_loss", mean_loss, epoch_fields.clone());
        if wall > Duration::ZERO {
            kgfd_obs::metric(
                "embed.train.examples_per_sec",
                triples.len() as f64 / wall.as_secs_f64(),
                epoch_fields.clone(),
            );
        }
        kgfd_obs::metric(
            "embed.train.negative_sampling_us",
            sampling.as_micros() as f64,
            epoch_fields,
        );
        kgfd_obs::counter("embed.train.epochs").add(1);
        mean_loss
    }
}

/// A cooperative stop request for long training runs — the "SIGTERM" story
/// of a dependency-free binary. The flag can be raised from any thread (or
/// armed with a wall-clock deadline up front); [`TrainSession::run`] checks
/// it at every epoch boundary, writes a final checkpoint, and returns
/// [`TrainOutcome::Interrupted`] instead of training on. Signal handlers
/// proper would need `libc`, which the offline build intentionally avoids.
#[derive(Clone, Debug, Default)]
pub struct StopSignal {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl StopSignal {
    /// A signal nobody has raised yet.
    pub fn new() -> Self {
        StopSignal::default()
    }

    /// A signal that trips automatically once `budget` of wall-clock time
    /// has elapsed (measured from this call).
    pub fn with_deadline(budget: Duration) -> Self {
        StopSignal {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Raises the stop flag; every clone of this signal observes it.
    pub fn request_stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once the flag is raised or the deadline has passed.
    pub fn should_stop(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// How a [`TrainSession::run`] call ended.
#[derive(Debug)]
pub enum TrainOutcome {
    /// All configured epochs ran.
    Completed,
    /// A [`StopSignal`] tripped at an epoch boundary. When a checkpoint
    /// policy was in effect the session's state was checkpointed at the
    /// boundary, so a later `--resume` continues bit-identically.
    Interrupted {
        /// Epochs completed before the stop was honoured.
        epochs_done: usize,
        /// The checkpoint written at the stop boundary, if a policy was set.
        checkpoint: Option<std::path::PathBuf>,
    },
}

/// A resumable training run: the model, optimizer, and epoch-shuffle RNG as
/// one unit of state that can be advanced epoch by epoch, snapshotted into
/// a [`crate::TrainCheckpoint`], and — after a crash — reconstructed at the
/// exact epoch boundary it last checkpointed.
///
/// [`train`] is this session driven to completion, and resuming from any
/// epoch boundary is bit-identical to never having stopped — the contract
/// the checkpoint differential suite enforces.
pub struct TrainSession<'a> {
    core: TrainerCore<'a>,
    model: Box<dyn KgeModel>,
    optimizer: Adam,
    rng: StdRng,
    epochs_done: usize,
    epoch_losses: Vec<f64>,
}

impl<'a> TrainSession<'a> {
    /// Starts a fresh session (epoch 0, seeded init) for `kind` on `store`.
    pub fn new(
        kind: ModelKind,
        store: &'a TripleStore,
        config: &TrainConfig,
    ) -> Result<Self, KgError> {
        config
            .validate()
            .map_err(|e| KgError::Invariant(format!("invalid TrainConfig: {e}")))?;
        let model = new_model(
            kind,
            store.num_entities(),
            store.num_relations(),
            config.dim,
            config.seed,
        );
        Self::assemble(model, store, config, None, 0, Vec::new())
    }

    /// Reconstructs a session from checkpointed state: a trained-so-far
    /// model, its optimizer state, and the number of epochs already done.
    /// The epoch-shuffle stream is restored by replaying the shuffles of the
    /// completed epochs (the triple order entering epoch *k* is the
    /// cumulative permutation of epochs `0..k`, so both the order and the
    /// RNG position fall out of the replay); `expected_rng_state` — the
    /// stream position the checkpoint recorded — is then cross-checked so
    /// any drift in the RNG or shuffle implementation is caught loudly
    /// instead of silently diverging from the uninterrupted run.
    pub fn resume(
        model: Box<dyn KgeModel>,
        store: &'a TripleStore,
        config: &TrainConfig,
        optimizer_state: crate::OptimizerState,
        epochs_done: usize,
        epoch_losses: Vec<f64>,
        expected_rng_state: [u64; 4],
    ) -> Result<Self, KgError> {
        config
            .validate()
            .map_err(|e| KgError::Invariant(format!("invalid TrainConfig: {e}")))?;
        if model.num_entities() != store.num_entities()
            || model.num_relations() != store.num_relations()
        {
            return Err(KgError::Corrupt(format!(
                "checkpointed model shape ({} entities, {} relations) does not match \
                 the training graph ({} entities, {} relations)",
                model.num_entities(),
                model.num_relations(),
                store.num_entities(),
                store.num_relations()
            )));
        }
        if epochs_done > config.epochs {
            return Err(KgError::Corrupt(format!(
                "checkpoint claims {epochs_done} epochs done but the run only has {}",
                config.epochs
            )));
        }
        let session = Self::assemble(
            model,
            store,
            config,
            Some(optimizer_state),
            epochs_done,
            epoch_losses,
        )?;
        if session.rng.state() != expected_rng_state {
            return Err(KgError::Corrupt(
                "replayed epoch-shuffle stream does not reach the checkpointed RNG \
                 position — the RNG or shuffle implementation has changed since the \
                 checkpoint was written"
                    .into(),
            ));
        }
        Ok(session)
    }

    fn assemble(
        model: Box<dyn KgeModel>,
        store: &'a TripleStore,
        config: &TrainConfig,
        optimizer_state: Option<crate::OptimizerState>,
        epochs_done: usize,
        epoch_losses: Vec<f64>,
    ) -> Result<Self, KgError> {
        let mut core = TrainerCore::new(model.as_ref(), store, config);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        // Replay the completed epochs' shuffles so the triple order and the
        // stream position both land exactly at the resume boundary. O(k·n)
        // swaps — noise next to a single epoch of training.
        for _ in 0..epochs_done {
            core.triples.shuffle(&mut rng);
        }
        let optimizer = match optimizer_state {
            None => Adam::new(config.optimizer, model.params()),
            Some(state) => Adam::resume(config.optimizer, model.params(), state)?,
        };
        Ok(TrainSession {
            core,
            model,
            optimizer,
            rng,
            epochs_done,
            epoch_losses,
        })
    }

    /// Runs the next epoch and returns its mean pair loss.
    pub fn run_epoch(&mut self) -> f64 {
        let loss = self.core.run_epoch(
            self.model.as_mut(),
            &mut self.optimizer,
            &mut self.rng,
            self.epochs_done,
        );
        self.epochs_done += 1;
        self.epoch_losses.push(loss);
        loss
    }

    /// Epochs completed so far (across resumes).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// `true` once all configured epochs have run.
    pub fn is_complete(&self) -> bool {
        self.epochs_done >= self.core.config.epochs
    }

    /// The training configuration this session runs under.
    pub fn config(&self) -> &TrainConfig {
        &self.core.config
    }

    /// The model as trained so far.
    pub fn model(&self) -> &dyn KgeModel {
        self.model.as_ref()
    }

    /// The per-epoch losses so far (including pre-resume epochs).
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// The optimizer's current state snapshot.
    pub fn optimizer_state(&self) -> crate::OptimizerState {
        self.optimizer.state().clone()
    }

    /// The epoch-shuffle RNG's current stream position.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Consumes the session, yielding the trained model and its stats.
    pub fn into_model(self) -> (Box<dyn KgeModel>, TrainStats) {
        (
            self.model,
            TrainStats {
                epoch_losses: self.epoch_losses,
            },
        )
    }
}

/// Per-negative loss weights, written into `weights`: uniform 1.0, or
/// `k · softmax(α · f(neg))` under self-adversarial sampling (scaled by `k`
/// so the total gradient magnitude stays comparable to the uniform
/// setting).
fn negative_weights(scores: &[f32], temperature: Option<f32>, weights: &mut Vec<f32>) {
    weights.clear();
    match temperature {
        None => weights.resize(scores.len(), 1.0),
        Some(alpha) => {
            let max = scores
                .iter()
                .map(|&f| alpha * f)
                .fold(f32::NEG_INFINITY, f32::max);
            weights.extend(scores.iter().map(|&f| (alpha * f - max).exp()));
            let sum: f32 = weights.iter().sum();
            let k = scores.len() as f32;
            for w in weights.iter_mut() {
                *w = k * *w / sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ENTITY_TABLE;
    use kgfd_datasets::toy_biomedical;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            dim: 16,
            epochs: 15,
            batch_size: 32,
            negatives: 4,
            seed: 7,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn loss_decreases_on_toy_graph() {
        let data = toy_biomedical();
        let (_, stats) = train(ModelKind::TransE, &data.train, &quick_config());
        let first = stats.epoch_losses[0];
        let last = stats.final_loss();
        assert!(
            last < first * 0.8,
            "loss should drop: first={first}, last={last}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_biomedical();
        let (a, sa) = train(ModelKind::DistMult, &data.train, &quick_config());
        let (b, sb) = train(ModelKind::DistMult, &data.train, &quick_config());
        assert_eq!(sa.epoch_losses, sb.epoch_losses);
        assert_eq!(
            a.params().table(0).data(),
            b.params().table(0).data(),
            "same seed must give identical parameters"
        );
    }

    #[test]
    fn thread_count_does_not_change_parameters() {
        let data = toy_biomedical();
        let mut sequential = quick_config();
        sequential.threads = 1;
        let mut parallel = quick_config();
        parallel.threads = 4;
        let (a, sa) = train(ModelKind::DistMult, &data.train, &sequential);
        let (b, sb) = train(ModelKind::DistMult, &data.train, &parallel);
        assert_eq!(
            sa.epoch_losses, sb.epoch_losses,
            "losses must be bitwise equal"
        );
        for t in 0..a.params().num_tables() {
            assert_eq!(
                a.params().table(t).data(),
                b.params().table(t).data(),
                "table {t} must be bitwise identical across thread counts"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let data = toy_biomedical();
        let mut other = quick_config();
        other.seed = 8;
        let (a, _) = train(ModelKind::DistMult, &data.train, &quick_config());
        let (b, _) = train(ModelKind::DistMult, &data.train, &other);
        assert_ne!(a.params().table(0).data(), b.params().table(0).data());
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let config = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert_eq!(config.validate(), Err(TrainConfigError::ZeroBatchSize));
        assert_eq!(
            config.validate().unwrap_err().to_string(),
            "batch_size must be at least 1"
        );
    }

    #[test]
    #[should_panic(expected = "invalid TrainConfig: batch_size must be at least 1")]
    fn training_with_zero_batch_size_panics() {
        let data = toy_biomedical();
        let config = TrainConfig {
            batch_size: 0,
            epochs: 1,
            ..TrainConfig::default()
        };
        let _ = train(ModelKind::TransE, &data.train, &config);
    }

    #[test]
    fn zero_threads_is_rejected() {
        let config = TrainConfig {
            threads: 0,
            ..TrainConfig::default()
        };
        assert_eq!(config.validate(), Err(TrainConfigError::ZeroThreads));
    }

    #[test]
    fn batch_size_one_boundary_trains() {
        // The smallest legal batch: one optimizer step per positive.
        let data = toy_biomedical();
        let config = TrainConfig {
            batch_size: 1,
            epochs: 2,
            dim: 8,
            seed: 5,
            ..TrainConfig::default()
        };
        assert_eq!(config.validate(), Ok(()));
        let (model, stats) = train(ModelKind::DistMult, &data.train, &config);
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(stats.final_loss().is_finite());
        assert!(model.score(data.train.triples()[0]).is_finite());
    }

    #[test]
    fn negative_streams_are_reproducible_and_distinct() {
        use rand::Rng;
        let mut a = negative_stream(3, 1, 5);
        let mut b = negative_stream(3, 1, 5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = negative_stream(3, 1, 6);
        let mut d = negative_stream(3, 2, 5);
        let reference = negative_stream(3, 1, 5).next_u64();
        assert_ne!(reference, c.next_u64(), "shard index must matter");
        assert_ne!(reference, d.next_u64(), "epoch must matter");
    }

    #[test]
    fn trained_model_prefers_true_triples() {
        let data = toy_biomedical();
        let mut config = quick_config();
        config.epochs = 40;
        let (model, _) = train(ModelKind::ComplEx, &data.train, &config);
        // Average score of training triples must exceed that of random
        // corruptions by a clear margin.
        let mut rng = StdRng::seed_from_u64(99);
        let sampler = NegativeSampler::new(data.train.num_entities());
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        for &t in data.train.triples() {
            pos_sum += model.score(t);
            neg_sum +=
                model.score(sampler.corrupt(t, CorruptSide::Both, Some(&data.train), &mut rng));
        }
        assert!(
            pos_sum > neg_sum,
            "positives {pos_sum} should outscore negatives {neg_sum}"
        );
    }

    #[test]
    fn reciprocal_model_trains_inverse_rows() {
        let data = toy_biomedical();
        let mut config = quick_config();
        config.dim = 12;
        config.epochs = 2;
        let k = data.train.num_relations();
        let (model, _) = train(ModelKind::ConvE, &data.train, &config);
        // A fresh ConvE has identical init given the seed; after training the
        // reciprocal rows must have moved.
        let fresh = new_model(
            ModelKind::ConvE,
            data.train.num_entities(),
            k,
            12,
            config.seed,
        );
        let trained_recip = model.params().table(1).row(k); // first reciprocal row
        let fresh_recip = fresh.params().table(1).row(k);
        assert_ne!(trained_recip, fresh_recip);
    }

    #[test]
    fn normalization_keeps_entities_on_unit_sphere() {
        let data = toy_biomedical();
        let mut config = quick_config();
        config.normalize_entities = true;
        config.epochs = 3;
        let (model, _) = train(ModelKind::TransE, &data.train, &config);
        // Entities touched by training end up normalized.
        let table = model.params().table(ENTITY_TABLE);
        let mut normalized = 0;
        for e in 0..table.rows() {
            let n = crate::math::norm2_sq(table.row(e)).sqrt();
            if (n - 1.0).abs() < 1e-3 {
                normalized += 1;
            }
        }
        assert!(
            normalized > table.rows() / 2,
            "{normalized} rows normalized"
        );
    }

    #[test]
    fn adversarial_weights_emphasize_hard_negatives() {
        let scores = [5.0f32, -5.0];
        let mut w = Vec::new();
        negative_weights(&scores, Some(1.0), &mut w);
        assert!(w[0] > 1.9, "high-scoring negative dominates: {w:?}");
        assert!(w[1] < 0.1);
        assert!(
            (w.iter().sum::<f32>() - 2.0).abs() < 1e-5,
            "weights sum to k"
        );
        negative_weights(&scores, None, &mut w);
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn adversarial_training_still_learns() {
        let data = toy_biomedical();
        let mut config = quick_config();
        config.adversarial_temperature = Some(1.0);
        config.epochs = 25;
        let (_, stats) = train(ModelKind::TransE, &data.train, &config);
        assert!(
            stats.final_loss() < stats.epoch_losses[0],
            "loss should decrease: {:?}",
            stats.epoch_losses
        );
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
