//! `DiscoverFacts` — Algorithm 1 of the paper, as a streaming engine.
//!
//! For each relation `r` of the input graph: weight the per-relation
//! subject/object entity pools with the chosen strategy, sample
//! `⌊√max_candidates⌋ + 10` entities per side, take the mesh-grid cross
//! product with `r`, drop triples already in the graph, and repeat (at most
//! `max_iterations` times, the paper's constant 5) until `max_candidates`
//! candidates exist. Candidates are then ranked against their corruptions
//! (filtered by the training graph) and those ranking within `top_n` are
//! returned as facts.
//!
//! [`discover_facts`] runs this **streamed**: each relation's candidates are
//! produced by a [`CandidateStream`] iterator and scored `chunk_size` at a
//! time, with kept facts held in a bounded [`TopKFacts`] heap — the live
//! candidate footprint per relation is `chunk_size + top_k`, independent of
//! `max_candidates`. The original materialize-everything path survives as
//! [`discover_facts_materialized`], the reference oracle the conformance
//! suite (`tests/discovery_streaming.rs`) checks the stream against: facts
//! and ranks are **bit-identical** between the two at any chunk size and
//! thread count.

use crate::streaming::{cached_measures, CandidateStream, TopKFacts};
use crate::{
    compute_weights, AliasSampler, CandidateRules, DiscoveredFact, DiscoveryReport, Measures,
    RelationBreakdown, StrategyKind,
};
use fxhash::{FxBuildHasher, FxHashSet};
use kgfd_embed::KgeModel;
use kgfd_eval::rank_all;
use kgfd_kg::{EntityId, KgError, KnownTriples, RelationId, SideIndex, Triple, TripleStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Configuration of one discovery run (the inputs of Algorithm 1).
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Sampling strategy for `compute_weights`.
    pub strategy: StrategyKind,
    /// Maximum rank a candidate may have to count as a fact (paper: 500).
    pub top_n: usize,
    /// Candidate budget per relation (paper: 500).
    pub max_candidates: usize,
    /// Generation-loop bound (the paper's default constant 5; surfaced as a
    /// parameter because §3.1.1 notes it "could arguably be treated as
    /// another hyperparameter").
    pub max_iterations: usize,
    /// Restrict discovery to these relations (`None` = all used relations,
    /// as in Algorithm 1 line 3).
    pub relations: Option<Vec<RelationId>>,
    /// Mixes this fraction of uniform probability into every strategy's
    /// weights — the exploration/exploitation dial the paper's §6 calls for
    /// (`0.0` = the paper's pure-exploitation behaviour). Must be finite;
    /// [`try_discover_facts`] rejects NaN/∞ with a typed error.
    pub exploration_epsilon: f64,
    /// Sample from graph-global side pools instead of per-relation pools
    /// (AmpliGraph's `consolidate_sides=True`); reaches entities never seen
    /// with the target relation, at the cost of more implausible candidates.
    pub consolidate_sides: bool,
    /// Mine CHAI-style structural rules (functionality, self-loops) from the
    /// graph and prune candidates before the ranking step (§5.1, §6).
    pub prune_with_rules: bool,
    /// Apply the paper's Definition 2.1 literally: keep only facts whose
    /// *calibrated probability* exceeds the threshold, in addition to the
    /// `top_n` rank filter. Fit the [`kgfd_eval::Calibration`] on validation
    /// data; `None` (default) reproduces the paper's rank-only behaviour.
    pub min_probability: Option<(kgfd_eval::Calibration, f64)>,
    /// Sampling seed; runs are deterministic given it.
    pub seed: u64,
    /// Worker threads for candidate ranking.
    pub threads: usize,
    /// Candidates scored per streaming batch — the engine's working-set
    /// bound. Behaviourally invisible: facts and ranks are bit-identical at
    /// any chunk size; only memory and batching granularity change. Values
    /// below 1 are treated as 1.
    pub chunk_size: usize,
    /// Keep only the `k` best facts *per relation* under the total order
    /// `(rank, subject, relation, object)` (see
    /// [`crate::streaming::fact_order`]), held in a bounded heap during the
    /// run. `None` (default) keeps every fact within `top_n` — the paper's
    /// behaviour, bit-identical to [`discover_facts_materialized`].
    pub top_k: Option<usize>,
    /// Cooperative wall-clock budget for the run. Checked at every
    /// streaming chunk boundary (the engine's natural preemption points);
    /// once the instant passes, the run stops with
    /// [`KgError::DeadlineExceeded`] instead of completing — partial facts
    /// are discarded so a timed-out run never looks like a short one.
    /// `None` (default) = unbounded. Use [`try_discover_facts`] when
    /// setting this; the panicking wrapper treats the timeout as fatal.
    pub deadline: Option<std::time::Instant>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            strategy: StrategyKind::UniformRandom,
            top_n: 500,
            max_candidates: 500,
            max_iterations: 5,
            relations: None,
            exploration_epsilon: 0.0,
            consolidate_sides: false,
            prune_with_rules: false,
            min_probability: None,
            seed: 0,
            threads: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1),
            chunk_size: 128,
            top_k: None,
            deadline: None,
        }
    }
}

/// Which candidate path a run uses. The streaming engine is the production
/// path; the materialized one is the reference oracle.
#[derive(Clone, Copy)]
enum Engine {
    Streaming,
    Materialized,
}

/// Runs Algorithm 1: discovers facts absent from `store` that `model` ranks
/// within `config.top_n` of their corruptions. Candidates stream through
/// the scorer in `config.chunk_size` batches, so memory per relation is
/// bounded by `chunk_size + top_k` rather than `max_candidates`.
///
/// Panics if the configuration is invalid (non-finite
/// `exploration_epsilon`); use [`try_discover_facts`] for a typed error.
pub fn discover_facts(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> DiscoveryReport {
    try_discover_facts(model, store, config).expect("invalid discovery configuration")
}

/// [`discover_facts`] with configuration validation: rejects a non-finite
/// `exploration_epsilon` with [`KgError::Invariant`] instead of silently
/// treating NaN as "no exploration".
pub fn try_discover_facts(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> Result<DiscoveryReport, KgError> {
    if !config.exploration_epsilon.is_finite() {
        return Err(KgError::Invariant(format!(
            "exploration_epsilon must be finite, got {}",
            config.exploration_epsilon
        )));
    }
    run_discovery(model, store, config, Engine::Streaming)
}

/// The pre-streaming reference implementation: materializes every candidate
/// for a relation before ranking (peak memory O(`max_candidates`) per
/// relation) and keeps every fact within `top_n`, ignoring `chunk_size` and
/// `top_k`. Kept as the oracle for the differential conformance suite —
/// with `top_k = None` the streaming engine's output is bit-identical to
/// this path's.
pub fn discover_facts_materialized(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> DiscoveryReport {
    run_discovery(model, store, config, Engine::Materialized).expect("discovery worker panicked")
}

/// Maps a pool failure (a panicked relation worker) to the typed error the
/// discovery API surfaces instead of hanging or aborting the process.
fn worker_panic_error(e: kgfd_pool::PoolError) -> KgError {
    KgError::WorkerPanic(e.to_string())
}

/// Shared orchestration: preparation, the relation fan-out (sequential or
/// dispatched onto the persistent pool), and report assembly. Identical for
/// both engines so a conformance divergence can only come from the
/// per-relation paths.
fn run_discovery(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
    engine: Engine,
) -> Result<DiscoveryReport, KgError> {
    let total_span = kgfd_obs::span!("discover.total", strategy = config.strategy.to_string());

    let prep_span = kgfd_obs::span!(
        "discover.preparation",
        strategy = config.strategy.to_string()
    );
    // The streaming engine shares measure tables across runs via the
    // (fingerprint, strategy) cache; the oracle recomputes from scratch so
    // the two paths cannot accidentally share a wrong table.
    let cached;
    let owned;
    let measures: &Measures = match engine {
        Engine::Streaming => {
            cached = cached_measures(config.strategy, store);
            cached.as_ref()
        }
        Engine::Materialized => {
            owned = Measures::compute(config.strategy, store);
            &owned
        }
    };
    let known = KnownTriples::from_slices([store.triples()]);
    let rules = config
        .prune_with_rules
        .then(|| CandidateRules::learn(store, 5));
    let consolidated = config.consolidate_sides.then(|| {
        (
            global_side_index(store, kgfd_kg::Side::Subject),
            global_side_index(store, kgfd_kg::Side::Object),
        )
    });
    let preparation = prep_span.finish();

    let relations = config
        .relations
        .clone()
        .unwrap_or_else(|| store.used_relations());
    // Line 4: the mesh grid is sample_size², so √max_candidates (+10 slack)
    // entities per side fill the budget in one iteration in expectation.
    let sample_size = (config.max_candidates as f64).sqrt() as usize + 10;

    let run_one = |r: RelationId, rank_threads: usize| -> Result<RelationOutcome, KgError> {
        match engine {
            Engine::Streaming => discover_relation_streaming(
                model,
                store,
                config,
                r,
                measures,
                &known,
                rules.as_ref(),
                consolidated.as_ref(),
                rank_threads,
            ),
            Engine::Materialized => Ok(discover_relation_materialized(
                model,
                store,
                config,
                r,
                measures,
                &known,
                rules.as_ref(),
                consolidated.as_ref(),
                sample_size,
                rank_threads,
            )),
        }
    };

    // Relations are embarrassingly parallel: each draws from its own
    // seed-derived RNG stream and sees only shared read-only state, so the
    // outcome of one never depends on which others run or where. Pool
    // workers take contiguous chunks and results merge in relation order,
    // keeping the report byte-identical to a sequential run at any thread
    // count. When the outer loop is parallel, per-relation candidate
    // ranking runs single-threaded — the relation fan-out already owns the
    // budget (a nested ranking scope would fall back to inline execution on
    // the pool anyway).
    let workers = config.threads.max(1).min(relations.len().max(1));
    let outcomes: Vec<RelationOutcome> = if workers <= 1 {
        relations
            .iter()
            .map(|&r| {
                // Trace-only: groups this relation's generation/evaluation
                // spans in trace exports without adding per-relation events.
                let _rel_span = kgfd_obs::span_traced!("discover.relation", relation = r.0);
                run_one(r, config.threads)
            })
            .collect::<Result<_, _>>()?
    } else {
        let per_worker = relations.len().div_ceil(workers);
        let mut collected = Vec::with_capacity(relations.len());
        // Pool workers have an empty span stack; hand the root span over
        // explicitly so every per-relation span still nests under it.
        let total_handle = total_span.handle();
        let run_one = &run_one;
        kgfd_pool::scope(|scope| {
            let handles: Vec<_> = relations
                .chunks(per_worker)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&r| {
                                let _rel_span = kgfd_obs::Span::child_for_thread_with_fields(
                                    total_handle,
                                    "discover.relation",
                                    vec![kgfd_obs::Field::new("relation", r.0)],
                                );
                                run_one(r, 1)
                            })
                            .collect::<Result<Vec<_>, KgError>>()
                    })
                })
                .collect();
            // Join *every* handle before surfacing an error: a typed
            // propagation must not leave panicked-but-unclaimed jobs for
            // the scope exit to resume.
            let joined: Vec<_> = handles.into_iter().map(|h| h.try_join()).collect();
            for part in joined {
                collected.extend(part.map_err(worker_panic_error)??);
            }
            Ok::<(), KgError>(())
        })?;
        collected
    };

    let mut facts = Vec::new();
    let mut per_relation = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        facts.extend(outcome.facts);
        per_relation.push(outcome.breakdown);
    }

    Ok(DiscoveryReport {
        strategy: config.strategy,
        top_n: config.top_n,
        max_candidates: config.max_candidates,
        facts,
        per_relation,
        preparation,
        total: total_span.finish(),
    })
}

/// One relation's share of a discovery run: its kept facts plus the
/// [`RelationBreakdown`] bookkeeping row.
struct RelationOutcome {
    facts: Vec<DiscoveredFact>,
    breakdown: RelationBreakdown,
}

/// Streaming generation + ranking for a single relation: pull up to
/// `chunk_size` candidates from the [`CandidateStream`], rank the chunk,
/// push survivors into the bounded [`TopKFacts`] heap, repeat until the
/// stream runs dry. Deterministic given `config.seed` and `r` alone — safe
/// to run for many relations concurrently — and bit-identical to
/// [`discover_relation_materialized`] when `top_k` is `None`.
///
/// Observability: each chunk opens trace-only `discover.generation` /
/// `discover.evaluation` spans (so trace trees nest the ranking kernels
/// correctly), and the per-phase totals are then emitted as *one* aggregate
/// SpanEnd event per phase — sinks see exactly the same event shape as the
/// materialized path. Peak working set is published on the
/// `discover.stream.peak_buffer` gauge; per-chunk throughput on the
/// `discover.stream.chunks` counter and `discover.stream.chunk_candidates`
/// / `discover.stream.chunk_us` histograms.
#[allow(clippy::too_many_arguments)]
fn discover_relation_streaming(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
    r: RelationId,
    measures: &Measures,
    known: &KnownTriples,
    rules: Option<&CandidateRules>,
    consolidated: Option<&(SideIndex, SideIndex)>,
    rank_threads: usize,
) -> Result<RelationOutcome, KgError> {
    // Stream setup (pool resolution, weights, alias tables) is generation
    // work; time it under the same phase as the draw loop.
    let setup_span = kgfd_obs::span_traced!("discover.generation", relation = r.0);
    let mut stream = CandidateStream::for_relation(store, config, r, measures, rules, consolidated)
        .expect("built-in strategies produce finite weights");
    let mut generation = setup_span.finish();
    let mut evaluation = Duration::ZERO;

    let chunk_size = config.chunk_size.max(1);
    let mut top = TopKFacts::new(config.top_k);
    let mut chunk: Vec<Triple> = Vec::with_capacity(chunk_size.min(config.max_candidates));
    let mut peak_buffer = 0usize;
    loop {
        // Chunk boundaries are the engine's preemption points: between
        // chunks no pool job is in flight, so stopping here loses at most
        // one chunk of work and never strands a ranking kernel.
        if let Some(deadline) = config.deadline {
            if std::time::Instant::now() >= deadline {
                kgfd_obs::counter("discover.deadline_exceeded").inc();
                return Err(KgError::DeadlineExceeded);
            }
        }
        chunk.clear();
        let gen_span = kgfd_obs::span_traced!("discover.generation", relation = r.0);
        stream.fill_chunk(&mut chunk, chunk_size);
        let gen_elapsed = gen_span.finish();
        generation += gen_elapsed;
        if chunk.is_empty() {
            break;
        }
        peak_buffer = peak_buffer.max(chunk.len() + top.len());

        // Lines 14–15 per chunk: rank candidates, keep those within top_n.
        let eval_span = kgfd_obs::span_traced!("discover.evaluation", relation = r.0);
        let ranks = rank_all(model, &chunk, Some(known), rank_threads);
        for (t, r2) in chunk.iter().zip(&ranks) {
            let rank = r2.mean();
            if rank > config.top_n as f64 {
                continue;
            }
            if let Some((calibration, threshold)) = &config.min_probability {
                if calibration.probability(model.score(*t)) <= *threshold {
                    continue;
                }
            }
            top.push(DiscoveredFact { triple: *t, rank });
        }
        let eval_elapsed = eval_span.finish();
        evaluation += eval_elapsed;
        peak_buffer = peak_buffer.max(chunk.len() + top.len());

        kgfd_obs::counter("discover.stream.chunks").inc();
        kgfd_obs::histogram("discover.stream.chunk_candidates").record(chunk.len() as f64);
        kgfd_obs::histogram("discover.stream.chunk_us")
            .record((gen_elapsed + eval_elapsed).as_micros() as f64);
    }
    // Running maximum across relations/threads: the engine's bounded-memory
    // contract (peak ≤ chunk_size + top_k) is asserted against this gauge.
    kgfd_obs::gauge("discover.stream.peak_buffer").set_max(peak_buffer as f64);

    // One aggregate event per phase per relation — same event stream shape
    // as the materialized path even though the phases interleave per chunk.
    kgfd_obs::emit_span_aggregate(
        "discover.generation",
        generation,
        vec![kgfd_obs::Field::new("relation", r.0)],
    );
    kgfd_obs::counter("discover.generation.candidates").add(stream.produced() as u64);
    kgfd_obs::counter("discover.generation.pruned").add(stream.pruned() as u64);
    kgfd_obs::emit_span_aggregate(
        "discover.evaluation",
        evaluation,
        vec![kgfd_obs::Field::new("relation", r.0)],
    );
    let facts = top.into_ordered();
    kgfd_obs::counter("discover.evaluation.facts").add(facts.len() as u64);

    let breakdown = RelationBreakdown {
        relation: r,
        candidates: stream.produced(),
        facts: facts.len(),
        pruned: stream.pruned(),
        iterations: stream.iterations(),
        generation,
        evaluation,
    };
    Ok(RelationOutcome { facts, breakdown })
}

/// Materialized generation + ranking for a single relation (Algorithm 1
/// lines 4–15 verbatim) — the oracle implementation, deliberately kept as
/// an independent transcription of the paper's loop rather than a wrapper
/// over [`CandidateStream`], so the conformance suite compares two real
/// implementations.
#[allow(clippy::too_many_arguments)]
fn discover_relation_materialized(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
    r: RelationId,
    measures: &Measures,
    known: &KnownTriples,
    rules: Option<&CandidateRules>,
    consolidated: Option<&(SideIndex, SideIndex)>,
    sample_size: usize,
    rank_threads: usize,
) -> RelationOutcome {
    // Independent stream per relation: results do not depend on which
    // other relations run or in what order.
    let stream_seed = config
        .seed
        .wrapping_add((r.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = StdRng::seed_from_u64(stream_seed);

    let gen_span = kgfd_obs::span!("discover.generation", relation = r.0);
    let (subject_pool, object_pool) = match consolidated {
        Some((s_pool, o_pool)) => (s_pool, o_pool),
        None => (store.subject_index(r), store.object_index(r)),
    };
    if subject_pool.is_empty() || object_pool.is_empty() {
        return RelationOutcome {
            facts: Vec::new(),
            breakdown: RelationBreakdown {
                relation: r,
                candidates: 0,
                facts: 0,
                pruned: 0,
                iterations: 0,
                generation: gen_span.finish(),
                evaluation: Duration::ZERO,
            },
        };
    }
    let mut s_weights = compute_weights(config.strategy, measures, subject_pool);
    let mut o_weights = compute_weights(config.strategy, measures, object_pool);
    if config.exploration_epsilon > 0.0 {
        mix_uniform(&mut s_weights, config.exploration_epsilon);
        mix_uniform(&mut o_weights, config.exploration_epsilon);
    }
    let s_sampler = AliasSampler::new(&s_weights);
    let o_sampler = AliasSampler::new(&o_weights);

    let mut local: Vec<Triple> = Vec::with_capacity(config.max_candidates);
    // Seeded fast-hash dedup: candidate volume is bounded by
    // `max_candidates`, so pre-size the set to skip rehashing; the seed keeps
    // bucket layout independent of any ambient hasher randomisation.
    let mut local_seen: FxHashSet<Triple> = FxHashSet::with_capacity_and_hasher(
        config.max_candidates * 2,
        FxBuildHasher::seeded(stream_seed),
    );
    let mut iterations = 0usize;
    let mut pruned = 0usize;
    while local.len() < config.max_candidates && iterations < config.max_iterations {
        iterations += 1;
        let s_samples: Vec<EntityId> = (0..sample_size)
            .map(|_| subject_pool.entities[s_sampler.sample(&mut rng)])
            .collect();
        let o_samples: Vec<EntityId> = (0..sample_size)
            .map(|_| object_pool.entities[o_sampler.sample(&mut rng)])
            .collect();
        // Lines 11–13: mesh grid, filter seen, append.
        'grid: for &s in &s_samples {
            for &o in &o_samples {
                let t = Triple {
                    subject: s,
                    relation: r,
                    object: o,
                };
                if store.contains(&t) || !local_seen.insert(t) {
                    continue;
                }
                if let Some(rules) = rules {
                    if !rules.admits(store, &t) {
                        pruned += 1;
                        continue;
                    }
                }
                local.push(t);
                if local.len() >= config.max_candidates {
                    break 'grid;
                }
            }
        }
    }
    let gen_elapsed = gen_span.finish();
    kgfd_obs::counter("discover.generation.candidates").add(local.len() as u64);
    kgfd_obs::counter("discover.generation.pruned").add(pruned as u64);

    // Lines 14–15: rank candidates, keep those within top_n.
    let eval_span = kgfd_obs::span!("discover.evaluation", relation = r.0);
    let ranks = rank_all(model, &local, Some(known), rank_threads);
    let mut facts = Vec::new();
    for (t, r2) in local.iter().zip(&ranks) {
        let rank = r2.mean();
        if rank > config.top_n as f64 {
            continue;
        }
        if let Some((calibration, threshold)) = &config.min_probability {
            if calibration.probability(model.score(*t)) <= *threshold {
                continue;
            }
        }
        facts.push(DiscoveredFact { triple: *t, rank });
    }
    let eval_elapsed = eval_span.finish();
    kgfd_obs::counter("discover.evaluation.facts").add(facts.len() as u64);

    let breakdown = RelationBreakdown {
        relation: r,
        candidates: local.len(),
        facts: facts.len(),
        pruned,
        iterations,
        generation: gen_elapsed,
        evaluation: eval_elapsed,
    };
    RelationOutcome { facts, breakdown }
}

/// Graph-global side pool: every entity occurring on `side` of any triple,
/// with its global occurrence count.
fn global_side_index(store: &TripleStore, side: kgfd_kg::Side) -> SideIndex {
    let counts = store.global_side_counts(side);
    let mut index = SideIndex::default();
    for (e, &c) in counts.iter().enumerate() {
        if c > 0 {
            index.entities.push(EntityId(e as u32));
            index.counts.push(c);
        }
    }
    index
}

/// `w ← (1 − ε) w + ε / n` — keeps every pool member reachable.
pub(crate) fn mix_uniform(weights: &mut [f64], epsilon: f64) {
    let epsilon = epsilon.clamp(0.0, 1.0);
    let u = epsilon / weights.len() as f64;
    for w in weights.iter_mut() {
        *w = (1.0 - epsilon) * *w + u;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_datasets::toy_biomedical;
    use kgfd_embed::{train, ModelKind, TrainConfig};

    fn trained_toy() -> (kgfd_kg::Dataset, Box<dyn KgeModel>) {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 16,
            epochs: 40,
            seed: 5,
            ..TrainConfig::default()
        };
        let (model, _) = train(ModelKind::ComplEx, &data.train, &config);
        (data, model)
    }

    fn quick_config(strategy: StrategyKind) -> DiscoveryConfig {
        DiscoveryConfig {
            strategy,
            top_n: 8,
            max_candidates: 30,
            seed: 1,
            threads: 2,
            ..DiscoveryConfig::default()
        }
    }

    #[test]
    fn discovered_facts_are_novel_and_within_top_n() {
        let (data, model) = trained_toy();
        for strategy in StrategyKind::ALL {
            let report = discover_facts(model.as_ref(), &data.train, &quick_config(strategy));
            for fact in &report.facts {
                assert!(
                    !data.train.contains(&fact.triple),
                    "{strategy}: rediscovered a training triple"
                );
                assert!(fact.rank <= 8.0, "{strategy}: rank above top_n");
                assert!(fact.rank >= 1.0);
            }
        }
    }

    #[test]
    fn streaming_matches_the_materialized_oracle() {
        // The root-level conformance suite sweeps every strategy × model ×
        // thread count; this is the fast in-crate smoke version.
        let (data, model) = trained_toy();
        for strategy in [StrategyKind::EntityFrequency, StrategyKind::GraphDegree] {
            let cfg = quick_config(strategy);
            let streamed = discover_facts(model.as_ref(), &data.train, &cfg);
            let oracle = discover_facts_materialized(model.as_ref(), &data.train, &cfg);
            assert_eq!(streamed.facts, oracle.facts, "{strategy}: facts diverged");
        }
    }

    #[test]
    fn chunk_size_never_changes_the_discovered_facts() {
        let (data, model) = trained_toy();
        let baseline = discover_facts(
            model.as_ref(),
            &data.train,
            &quick_config(StrategyKind::EntityFrequency),
        );
        for chunk_size in [1, 7, 10_000] {
            let mut cfg = quick_config(StrategyKind::EntityFrequency);
            cfg.chunk_size = chunk_size;
            let report = discover_facts(model.as_ref(), &data.train, &cfg);
            assert_eq!(
                report.facts, baseline.facts,
                "chunk_size {chunk_size} changed the facts"
            );
            for (a, b) in report.per_relation.iter().zip(&baseline.per_relation) {
                assert_eq!(a.candidates, b.candidates);
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(a.pruned, b.pruned);
            }
        }
    }

    #[test]
    fn top_k_keeps_the_best_facts_in_generation_order() {
        let (data, model) = trained_toy();
        let base = quick_config(StrategyKind::EntityFrequency);
        let unbounded = discover_facts(model.as_ref(), &data.train, &base);
        let mut capped_cfg = base.clone();
        capped_cfg.top_k = Some(2);
        let capped = discover_facts(model.as_ref(), &data.train, &capped_cfg);

        for rel in &unbounded.per_relation {
            let all: Vec<DiscoveredFact> = unbounded
                .facts
                .iter()
                .filter(|f| f.triple.relation == rel.relation)
                .copied()
                .collect();
            // Expected: the 2 best under the total order, in their original
            // generation order.
            let mut best = all.clone();
            best.sort_by(crate::streaming::fact_order);
            best.truncate(2);
            let expected: Vec<DiscoveredFact> =
                all.iter().filter(|f| best.contains(f)).copied().collect();
            let got: Vec<DiscoveredFact> = capped
                .facts
                .iter()
                .filter(|f| f.triple.relation == rel.relation)
                .copied()
                .collect();
            assert_eq!(got, expected, "relation {:?}", rel.relation);
            assert!(got.len() <= 2);
        }
    }

    #[test]
    fn non_finite_epsilon_is_rejected_with_a_typed_error() {
        let (data, model) = trained_toy();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut cfg = quick_config(StrategyKind::UniformRandom);
            cfg.exploration_epsilon = bad;
            match try_discover_facts(model.as_ref(), &data.train, &cfg) {
                Err(KgError::Invariant(msg)) => {
                    assert!(msg.contains("exploration_epsilon"), "{msg}")
                }
                other => panic!("expected Invariant error, got {:?}", other.map(|r| r.facts)),
            }
        }
    }

    #[test]
    fn expired_deadline_yields_the_typed_timeout() {
        let (data, model) = trained_toy();
        for threads in [1, 2] {
            let mut cfg = quick_config(StrategyKind::UniformRandom);
            cfg.threads = threads;
            cfg.deadline = Some(std::time::Instant::now() - Duration::from_millis(1));
            match try_discover_facts(model.as_ref(), &data.train, &cfg) {
                Err(KgError::DeadlineExceeded) => {}
                other => panic!(
                    "threads={threads}: expected DeadlineExceeded, got {:?}",
                    other.map(|r| r.facts)
                ),
            }
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let (data, model) = trained_toy();
        let base = quick_config(StrategyKind::EntityFrequency);
        let unbounded = discover_facts(model.as_ref(), &data.train, &base);
        let mut timed = base.clone();
        timed.deadline = Some(std::time::Instant::now() + Duration::from_secs(3600));
        let bounded = try_discover_facts(model.as_ref(), &data.train, &timed).unwrap();
        assert_eq!(unbounded.facts, bounded.facts);
    }

    #[test]
    fn span_derived_phase_durations_fit_inside_the_total() {
        let (data, model) = trained_toy();
        let mut cfg = quick_config(StrategyKind::UniformRandom);
        for threads in [1, 4] {
            cfg.threads = threads;
            let report = discover_facts(model.as_ref(), &data.train, &cfg);
            assert!(report.preparation <= report.total, "threads={threads}");
            // Per-relation times are busy time; only a sequential run lays
            // them end to end inside the wall clock.
            let busy: Duration = report
                .per_relation
                .iter()
                .map(|r| r.generation + r.evaluation)
                .sum();
            assert!(threads > 1 || report.preparation + busy <= report.total);
        }
    }

    #[test]
    fn discovery_is_deterministic() {
        let (data, model) = trained_toy();
        let cfg = quick_config(StrategyKind::EntityFrequency);
        let a = discover_facts(model.as_ref(), &data.train, &cfg);
        let b = discover_facts(model.as_ref(), &data.train, &cfg);
        assert_eq!(a.facts, b.facts);
    }

    #[test]
    fn respects_per_relation_candidate_budget() {
        let (data, model) = trained_toy();
        let report = discover_facts(
            model.as_ref(),
            &data.train,
            &quick_config(StrategyKind::UniformRandom),
        );
        for rel in &report.per_relation {
            assert!(rel.candidates <= 30);
            assert!(rel.iterations <= 5);
            assert!(rel.facts <= rel.candidates);
        }
    }

    #[test]
    fn relation_restriction_is_honored() {
        let (data, model) = trained_toy();
        let treats = data.vocab.relation("treats").unwrap();
        let mut cfg = quick_config(StrategyKind::GraphDegree);
        cfg.relations = Some(vec![treats]);
        let report = discover_facts(model.as_ref(), &data.train, &cfg);
        assert_eq!(report.per_relation.len(), 1);
        assert!(report.facts.iter().all(|f| f.triple.relation == treats));
    }

    #[test]
    fn higher_top_n_discovers_at_least_as_many_facts() {
        // §4.3.1: top_n only loosens the filter; candidates are unchanged.
        let (data, model) = trained_toy();
        let mut tight = quick_config(StrategyKind::EntityFrequency);
        tight.top_n = 3;
        let mut loose = tight.clone();
        loose.top_n = 12;
        let a = discover_facts(model.as_ref(), &data.train, &tight);
        let b = discover_facts(model.as_ref(), &data.train, &loose);
        assert!(b.facts.len() >= a.facts.len());
        assert_eq!(
            a.candidates_generated(),
            b.candidates_generated(),
            "top_n must not affect generation"
        );
    }

    #[test]
    fn report_mrr_respects_threshold_floor() {
        // Every kept fact ranks ≤ top_n, so MRR ≥ 1/top_n (§4.2.2).
        let (data, model) = trained_toy();
        let report = discover_facts(
            model.as_ref(),
            &data.train,
            &quick_config(StrategyKind::ClusteringTriangles),
        );
        if !report.facts.is_empty() {
            assert!(report.mrr() >= 1.0 / 8.0 - 1e-12);
        }
    }

    #[test]
    fn full_exploration_equals_uniform_random() {
        // ε = 1.0 replaces any strategy's weights with the uniform ones, so
        // the sampled candidates (same seeded stream) must match UNIFORM
        // RANDOM exactly.
        let (data, model) = trained_toy();
        let mut explore = quick_config(StrategyKind::ClusteringTriangles);
        explore.exploration_epsilon = 1.0;
        let uniform = quick_config(StrategyKind::UniformRandom);
        let a = discover_facts(model.as_ref(), &data.train, &explore);
        let b = discover_facts(model.as_ref(), &data.train, &uniform);
        assert_eq!(a.facts, b.facts);
    }

    #[test]
    fn exploration_epsilon_keeps_invariants() {
        let (data, model) = trained_toy();
        let mut cfg = quick_config(StrategyKind::EntityFrequency);
        cfg.exploration_epsilon = 0.3;
        let report = discover_facts(model.as_ref(), &data.train, &cfg);
        for fact in &report.facts {
            assert!(!data.train.contains(&fact.triple));
            assert!(fact.rank <= 8.0);
        }
    }

    #[test]
    fn consolidated_pools_reach_beyond_relation_sides() {
        let (data, model) = trained_toy();
        let treats = data.vocab.relation("treats").unwrap();
        let mut cfg = quick_config(StrategyKind::UniformRandom);
        cfg.relations = Some(vec![treats]);
        cfg.consolidate_sides = true;
        cfg.top_n = usize::MAX >> 1; // keep all candidates as facts
        cfg.max_candidates = 200;
        let report = discover_facts(model.as_ref(), &data.train, &cfg);
        // With global pools, some generated subjects must fall outside the
        // per-relation treats subject pool (e.g. proteins).
        let pool = &data.train.subject_index(treats).entities;
        assert!(
            report
                .facts
                .iter()
                .any(|f| pool.binary_search(&f.triple.subject).is_err()),
            "consolidated sampling never left the per-relation pool"
        );
    }

    #[test]
    fn rule_pruning_only_emits_rule_compliant_facts() {
        let (data, model) = trained_toy();
        let mut cfg = quick_config(StrategyKind::GraphDegree);
        cfg.prune_with_rules = true;
        cfg.top_n = usize::MAX >> 1;
        let report = discover_facts(model.as_ref(), &data.train, &cfg);
        let rules = crate::CandidateRules::learn(&data.train, 5);
        for fact in &report.facts {
            assert!(rules.admits(&data.train, &fact.triple));
        }
        // The toy graph has functional relations, so something gets pruned.
        let pruned: usize = report.per_relation.iter().map(|r| r.pruned).sum();
        assert!(pruned > 0, "expected the rules to prune something");
    }

    #[test]
    fn probability_threshold_tightens_the_output() {
        // Definition 2.1: P(t) > b. A high threshold must subset the
        // rank-only output; threshold 0 must match it exactly.
        let (data, model) = trained_toy();
        let calibration =
            kgfd_eval::Calibration::fit(model.as_ref(), data.train.triples(), &data.train, 3);
        let base = quick_config(StrategyKind::EntityFrequency);
        let rank_only = discover_facts(model.as_ref(), &data.train, &base);

        let mut zero = base.clone();
        zero.min_probability = Some((calibration, 0.0));
        let with_zero = discover_facts(model.as_ref(), &data.train, &zero);
        assert_eq!(rank_only.facts, with_zero.facts);

        let mut strict = base.clone();
        strict.min_probability = Some((calibration, 0.9));
        let with_strict = discover_facts(model.as_ref(), &data.train, &strict);
        assert!(with_strict.facts.len() <= rank_only.facts.len());
        for f in &with_strict.facts {
            assert!(calibration.probability(model.score(f.triple)) > 0.9);
            assert!(rank_only.facts.contains(f), "must be a subset");
        }
    }

    #[test]
    fn can_rediscover_held_out_facts() {
        // The toy graph's held-out treats facts are rule-derivable; at least
        // one strategy should surface one of them with a generous budget.
        let (data, model) = trained_toy();
        let treats = data.vocab.relation("treats").unwrap();
        let mut cfg = quick_config(StrategyKind::EntityFrequency);
        cfg.relations = Some(vec![treats]);
        cfg.max_candidates = 100;
        cfg.top_n = 16;
        let report = discover_facts(model.as_ref(), &data.train, &cfg);
        let held_out: Vec<Triple> = data.valid.iter().chain(&data.test).copied().collect();
        let hit = report.facts.iter().any(|f| held_out.contains(&f.triple));
        // This is a statistical property of a trained model; the toy graph
        // and seed are fixed, so the assertion is deterministic.
        assert!(
            hit,
            "expected a held-out treats fact among {:?}",
            report.facts
        );
    }
}
