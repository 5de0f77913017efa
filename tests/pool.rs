//! Edge cases of the process-wide worker pool: typed panic propagation,
//! nested-dispatch inline fallback, and the thread-count differential over
//! every model kind (run in CI under `KGFD_THREADS=1`, `4`, and `8`).

use fact_discovery::{discover_facts, try_discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{generate, mini, wn18rr_like};
use kgfd_embed::{
    new_model, train, Gradients, KgeModel, ModelConfig, ModelKind, Parameters, TrainConfig,
};
use kgfd_kg::{EntityId, KgError, RelationId, Triple};

/// Delegates to an inner model but panics whenever the score of
/// `poison_relation` is requested — simulating a bug inside a parallel
/// discovery worker.
struct PanickingModel {
    inner: Box<dyn KgeModel>,
    poison_relation: u32,
}

impl PanickingModel {
    fn check(&self, r: RelationId) {
        if r.0 == self.poison_relation {
            panic!("poisoned relation {} was scored", r.0);
        }
    }
}

impl KgeModel for PanickingModel {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }
    fn num_entities(&self) -> usize {
        self.inner.num_entities()
    }
    fn num_relations(&self) -> usize {
        self.inner.num_relations()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn config(&self) -> ModelConfig {
        self.inner.config()
    }
    fn params(&self) -> &Parameters {
        self.inner.params()
    }
    fn params_mut(&mut self) -> &mut Parameters {
        self.inner.params_mut()
    }
    fn score(&self, t: Triple) -> f32 {
        self.check(t.relation);
        self.inner.score(t)
    }
    fn score_objects(&self, s: EntityId, r: RelationId, out: &mut [f32]) {
        self.check(r);
        self.inner.score_objects(s, r, out);
    }
    fn score_subjects(&self, r: RelationId, o: EntityId, out: &mut [f32]) {
        self.check(r);
        self.inner.score_subjects(r, o, out);
    }
    fn backward(&self, t: Triple, upstream: f32, grads: &mut Gradients) {
        self.inner.backward(t, upstream, grads)
    }
}

/// A worker panic during parallel discovery must surface as
/// [`KgError::WorkerPanic`] — not hang the dispatcher, not abort the
/// process, not resume the panic on the caller's thread.
#[test]
fn discovery_worker_panic_becomes_typed_error() {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let model = PanickingModel {
        inner: new_model(
            ModelKind::DistMult,
            data.train.num_entities(),
            data.train.num_relations(),
            8,
            1,
        ),
        poison_relation: 1,
    };
    let config = DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: 10,
        max_candidates: 20,
        seed: 5,
        threads: 4,
        ..DiscoveryConfig::default()
    };
    let err = try_discover_facts(&model, &data.train, &config)
        .expect_err("a poisoned relation must fail discovery");
    match err {
        KgError::WorkerPanic(msg) => {
            assert!(
                msg.contains("poisoned relation"),
                "unhelpful payload: {msg}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

/// Dispatching pool work from inside a pool worker (ranking inside
/// discovery is the production shape) must fall back to inline execution
/// instead of deadlocking on the workers' own queues.
#[test]
fn nested_dispatch_runs_inline() {
    let inline_before = kgfd_obs::counter("pool.jobs.inline").get();
    let outer = [0usize, 1];
    let inner = [0usize, 1, 2];
    let sums = kgfd_pool::fan_out(2, &outer, |_, i| {
        // This inner fan-out would need free workers the pool may not
        // have; it must run on the current (worker) thread instead.
        let nested = kgfd_pool::fan_out(3, &inner, |_, j| 10 * i[0] + j[0]).unwrap();
        nested.iter().sum::<usize>()
    })
    .unwrap();
    assert_eq!(sums, vec![3, 33]);
    // Two chunks from this (non-worker) thread dispatch at any pool size,
    // so both inner fan-outs run on a worker and count their three chunks
    // as inline.
    assert!(
        kgfd_obs::counter("pool.jobs.inline").get() >= inline_before + 6,
        "nested jobs were not executed inline"
    );
}

/// The production nesting: a parallel discovery run whose per-relation
/// workers rank candidates. Must complete (no deadlock) with results
/// identical to the sequential run.
#[test]
fn ranking_inside_discovery_completes_and_matches_sequential() {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::DistMult,
        &data.train,
        &TrainConfig {
            dim: 8,
            epochs: 3,
            seed: 3,
            ..TrainConfig::default()
        },
    );
    let run = |threads: usize| {
        discover_facts(
            model.as_ref(),
            &data.train,
            &DiscoveryConfig {
                strategy: StrategyKind::GraphDegree,
                top_n: 10,
                max_candidates: 20,
                seed: 7,
                threads,
                ..DiscoveryConfig::default()
            },
        )
        .facts
    };
    assert_eq!(run(1), run(8));
}

/// Full train + discover differential over **all six model kinds**: the
/// thread count from `KGFD_THREADS` (CI runs this suite at 1, 4, and 8)
/// must produce bit-identical parameters, losses, and facts to a
/// single-threaded run.
#[test]
fn every_model_kind_is_thread_invariant_at_env_thread_count() {
    let threads: usize = std::env::var("KGFD_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let data = generate(&mini(&wn18rr_like())).unwrap();
    for kind in ModelKind::ALL {
        let run = |t: usize| {
            let (model, stats) = train(
                kind,
                &data.train,
                &TrainConfig {
                    dim: 8,
                    epochs: 3,
                    batch_size: 32,
                    seed: 19,
                    threads: t,
                    ..TrainConfig::default()
                },
            );
            let tables: Vec<Vec<u32>> = (0..model.params().num_tables())
                .map(|i| {
                    model
                        .params()
                        .table(i)
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            let facts = discover_facts(
                model.as_ref(),
                &data.train,
                &DiscoveryConfig {
                    strategy: StrategyKind::EntityFrequency,
                    top_n: 10,
                    max_candidates: 20,
                    seed: 19,
                    threads: t,
                    ..DiscoveryConfig::default()
                },
            )
            .facts;
            (tables, stats.epoch_losses, facts)
        };
        if threads == 1 {
            // Degenerate CI leg: still assert cross-run repeatability.
            assert_eq!(run(1), run(1), "{kind:?} is not repeatable");
        } else {
            assert_eq!(
                run(1),
                run(threads),
                "{kind:?} differs at {threads} threads"
            );
        }
    }
}
