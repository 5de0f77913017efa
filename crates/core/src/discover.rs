//! `DiscoverFacts` — Algorithm 1 of the paper, as a streaming engine.
//!
//! For each relation `r` of the input graph: weight the per-relation
//! subject/object entity pools with the chosen strategy, sample
//! `⌊√max_candidates⌋ + 10` entities per side, take the mesh-grid cross
//! product with `r`, drop triples already in the graph, and repeat (at most
//! [`MAX_ITERATIONS`] times, the paper's constant 5) until `max_candidates`
//! candidates exist. Candidates are then ranked against their corruptions
//! (filtered by the training graph) and those ranking within `top_n` are
//! returned as facts.
//!
//! [`discover_facts`] runs this **streamed**: each relation's candidates are
//! produced by a [`CandidateStream`] iterator and scored `chunk_size` at a
//! time, with kept facts held in a bounded [`TopKFacts`] heap — the live
//! candidate footprint per relation is `chunk_size + top_k`, independent of
//! `max_candidates`. The conformance suite (`tests/discovery_streaming.rs`)
//! checks the stream against its own sequential transcription of
//! Algorithm 1 that materializes every candidate: facts and ranks are
//! **bit-identical** between the two at any chunk size and thread count.

use crate::streaming::{CandidateStream, TopKFacts};
use crate::{
    measures, CandidateRules, DiscoveredFact, DiscoveryReport, Measures, RelationBreakdown,
    StrategyKind,
};
use kgfd_embed::KgeModel;
use kgfd_eval::rank_all;
use kgfd_kg::{EntityId, KgError, KnownTriples, RelationId, SideIndex, Triple, TripleStore};
use std::time::Duration;

/// Generation-loop bound of Algorithm 1: the paper's constant 5. §3.1.1
/// notes it "could arguably be treated as another hyperparameter", but
/// every experiment uses 5.
pub const MAX_ITERATIONS: usize = 5;

/// Configuration of one discovery run (the inputs of Algorithm 1).
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Sampling strategy for `compute_weights`.
    pub strategy: StrategyKind,
    /// Maximum rank a candidate may have to count as a fact (paper: 500).
    pub top_n: usize,
    /// Candidate budget per relation (paper: 500). [`try_discover_facts`]
    /// rejects a budget above both `num_entities²`, the most distinct
    /// candidates one relation can have, and 2²⁰.
    pub max_candidates: usize,
    /// Restrict discovery to these relations (`None` = all used relations,
    /// as in Algorithm 1 line 3).
    pub relations: Option<Vec<RelationId>>,
    /// Sample from graph-global side pools instead of per-relation pools
    /// (AmpliGraph's `consolidate_sides=True`); reaches entities never seen
    /// with the target relation, at the cost of more implausible candidates.
    pub consolidate_sides: bool,
    /// Mine CHAI-style structural rules (functionality, self-loops) from the
    /// graph and prune candidates before the ranking step (§5.1, §6).
    pub prune_with_rules: bool,
    /// Sampling seed; runs are deterministic given it.
    pub seed: u64,
    /// Worker threads for the relation fan-out and candidate ranking, and
    /// for the square-clustering table's build when this run is the
    /// store's first lookup of it (every other measure table builds on the
    /// calling thread). Defaults to [`kgfd_pool::default_threads`].
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
    /// behaviour.
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
            relations: None,
            consolidate_sides: false,
            prune_with_rules: false,
            seed: 0,
            threads: kgfd_pool::default_threads(),
            chunk_size: 128,
            top_k: None,
            deadline: None,
        }
    }
}

impl DiscoveryConfig {
    /// The check [`try_discover_facts`] runs on `store` before any work:
    /// [`KgError::Invariant`] for an unreachable `max_candidates`.
    pub fn validate(&self, store: &TripleStore) -> Result<(), KgError> {
        let candidate_space = store.num_entities().saturating_mul(store.num_entities());
        if self.max_candidates > candidate_space.max(MAX_UNCHECKED_CANDIDATES) {
            return Err(KgError::Invariant(format!(
                "max_candidates {} exceeds the {candidate_space} distinct candidates a relation \
                 of {} entities can have",
                self.max_candidates,
                store.num_entities()
            )));
        }
        Ok(())
    }
}

/// Budgets up to this many candidates per relation are accepted on any
/// graph, even where they exceed the graph's candidate space: the run then
/// exhausts the space within [`MAX_ITERATIONS`] mesh walks of about
/// `max_candidates` cells each, which stays cheap at this size. Larger
/// budgets must fit the graph (see [`try_discover_facts`]).
const MAX_UNCHECKED_CANDIDATES: usize = 1 << 20;

/// Runs Algorithm 1: discovers facts absent from `store` that `model` ranks
/// within `config.top_n` of their corruptions. Candidates stream through
/// the scorer in `config.chunk_size` batches, so memory per relation is
/// bounded by `chunk_size + top_k` rather than `max_candidates`.
///
/// Panics if the configuration is invalid (an unreachable
/// `max_candidates`); use [`try_discover_facts`] for a typed error.
pub fn discover_facts(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> DiscoveryReport {
    try_discover_facts(model, store, config).expect("invalid discovery configuration")
}

/// [`discover_facts`] with configuration validation. Returns
/// [`KgError::Invariant`] for a `max_candidates` above both
/// `num_entities²` and 2²⁰: no relation can yield that many distinct
/// candidates, and the mesh walk, whose side grows with `√max_candidates`,
/// would be sized for a budget the graph cannot fill.
pub fn try_discover_facts(
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
) -> Result<DiscoveryReport, KgError> {
    config.validate(store)?;
    let total_span = kgfd_obs::span!("discover.total", strategy = config.strategy.to_string());

    let prep_span = kgfd_obs::span!(
        "discover.preparation",
        strategy = config.strategy.to_string()
    );
    let measures = measures::lookup(config.strategy, store, config.threads);
    let known = store.known();
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

    // Relations are embarrassingly parallel: each draws from its own
    // seed-derived RNG stream and sees only shared read-only state, so the
    // outcome of one never depends on which others run or where. Pool jobs
    // take contiguous chunks and results merge in relation order, keeping
    // the report byte-identical to a serial run at any thread count, and
    // every job runs under `discover.total`. Ranking gets the thread budget
    // only when there is a single relation; otherwise the relation fan-out
    // owns it (a nested ranking fan-out would run inline in its chunk
    // anyway).
    let rank_threads = if relations.len() > 1 {
        1
    } else {
        config.threads
    };
    let chunks = kgfd_pool::fan_out(config.threads, &relations, |_, part| {
        part.iter()
            .map(|&r| {
                // Trace-only: groups this relation's generation/evaluation
                // spans in trace exports without adding per-relation events.
                let _rel_span = kgfd_obs::span_traced!("discover.relation", relation = r.0);
                discover_relation_streaming(
                    model,
                    store,
                    config,
                    r,
                    &measures,
                    known,
                    rules.as_ref(),
                    consolidated.as_ref(),
                    rank_threads,
                )
            })
            .collect::<Result<Vec<_>, KgError>>()
    })
    // A panicked relation job surfaces as a typed error instead of hanging
    // or aborting the process.
    .map_err(|e| KgError::WorkerPanic(e.to_string()))?;

    let mut facts = Vec::new();
    let mut per_relation = Vec::with_capacity(relations.len());
    for chunk in chunks {
        for outcome in chunk? {
            facts.extend(outcome.facts);
            per_relation.push(outcome.breakdown);
        }
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
/// to run for many relations concurrently.
///
/// Observability: each chunk opens trace-only `discover.generation` /
/// `discover.evaluation` spans (so trace trees nest the ranking kernels
/// correctly), and the per-phase totals are then emitted as *one* aggregate
/// SpanEnd event per phase, so sinks see one generation and one evaluation
/// event per relation however many chunks ran. Peak working set is
/// published on the
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

    // One aggregate event per phase per relation, even though the phases
    // interleave per chunk.
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
    fn unreachable_max_candidates_is_rejected_with_a_typed_error() {
        let (data, model) = trained_toy();
        let entities = data.train.num_entities();
        assert!(entities * entities < MAX_UNCHECKED_CANDIDATES);
        for bad in [MAX_UNCHECKED_CANDIDATES + 1, 10_000_000_000, usize::MAX] {
            let mut cfg = quick_config(StrategyKind::UniformRandom);
            cfg.max_candidates = bad;
            match try_discover_facts(model.as_ref(), &data.train, &cfg) {
                Err(KgError::Invariant(msg)) => assert!(msg.contains("max_candidates"), "{msg}"),
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
            assert!(rel.iterations <= MAX_ITERATIONS);
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
