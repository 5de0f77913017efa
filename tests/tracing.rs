//! Hierarchical tracing end-to-end: span trees produced by a real discovery
//! run must nest correctly across worker threads, account for the run's
//! wall-clock time, and never perturb the numerical results.

use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_datasets::{generate, mini, wn18rr_like};
use kgfd_embed::{save_model, train, ModelKind, TrainConfig};
use kgfd_obs::TraceTree;
use std::collections::HashSet;
use std::sync::Mutex;

/// The trace collector is process-global; tests that enable/drain it must
/// not interleave.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trained_mini_model(seed: u64) -> (kgfd_kg::Dataset, Box<dyn kgfd_embed::KgeModel>) {
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let (model, _) = train(
        ModelKind::DistMult,
        &data.train,
        &TrainConfig {
            dim: 16,
            epochs: 6,
            seed,
            ..TrainConfig::default()
        },
    );
    (data, model)
}

fn discovery_config(threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        strategy: StrategyKind::GraphDegree,
        top_n: 20,
        max_candidates: 40,
        seed: 5,
        threads,
        ..DiscoveryConfig::default()
    }
}

#[test]
fn trace_tree_nests_across_worker_threads() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (data, model) = trained_mini_model(3);

    kgfd_obs::enable_tracing();
    kgfd_obs::collector().drain(); // discard any spans from setup
    let report = discover_facts(model.as_ref(), &data.train, &discovery_config(4));
    let records = kgfd_obs::collector().drain();
    kgfd_obs::disable_tracing();

    assert!(!report.facts.is_empty(), "discovery should find facts");
    assert!(!records.is_empty(), "tracing should capture spans");

    // Every non-root parent id must refer to a recorded span.
    let ids: HashSet<u64> = records.iter().map(|r| r.id).collect();
    for r in &records {
        if let Some(parent) = r.parent {
            assert!(
                ids.contains(&parent),
                "span {} ({}) has dangling parent {}",
                r.id,
                r.name,
                parent
            );
        }
    }

    fn ancestor_names<'a>(
        by_id: &std::collections::HashMap<u64, &'a kgfd_obs::SpanRecord>,
        mut r: &'a kgfd_obs::SpanRecord,
    ) -> Vec<String> {
        let mut names = Vec::new();
        while let Some(p) = r.parent {
            r = by_id[&p];
            names.push(r.name.clone());
        }
        names
    }
    let by_id: std::collections::HashMap<u64, &kgfd_obs::SpanRecord> =
        records.iter().map(|r| (r.id, r)).collect();

    // The dispatching span is the root of everything.
    let total = records
        .iter()
        .find(|r| r.name == "discover.total")
        .expect("discover.total span");
    assert!(total.parent.is_none(), "discover.total must be a root");

    // Per-relation spans run on worker threads yet still chain up to the
    // dispatching discover.total span.
    let relations: Vec<_> = records
        .iter()
        .filter(|r| r.name == "discover.relation")
        .collect();
    assert!(!relations.is_empty(), "expected discover.relation spans");
    let worker_threads: HashSet<u64> = relations.iter().map(|r| r.thread).collect();
    assert!(
        worker_threads.iter().any(|&t| t != total.thread),
        "with threads=4 at least one relation span should run off the \
         dispatching thread (saw threads {worker_threads:?})"
    );
    for r in &relations {
        assert!(
            ancestor_names(&by_id, r).contains(&"discover.total".to_string()),
            "discover.relation must nest under discover.total"
        );
    }

    // Generation/evaluation spans nest under their relation span, and the
    // ranking kernel tiles nest under evaluation.
    for name in ["discover.generation", "discover.evaluation"] {
        let span = records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("expected a {name} span"));
        assert!(
            ancestor_names(&by_id, span).contains(&"discover.relation".to_string()),
            "{name} must nest under discover.relation"
        );
    }
    let kernel = records
        .iter()
        .find(|r| r.name == "eval.rank.batch_kernel")
        .expect("expected batch-kernel spans");
    assert!(
        ancestor_names(&by_id, kernel).contains(&"discover.evaluation".to_string()),
        "batch kernel must nest under discover.evaluation"
    );

    let tree = TraceTree::build(records.clone());
    assert!(
        tree.max_depth() >= 3,
        "expected at least 4 nesting levels, got max depth {}",
        tree.max_depth()
    );
}

#[test]
fn training_shard_spans_nest_under_their_batch_across_threads() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let data = generate(&mini(&wn18rr_like())).unwrap();
    let config = TrainConfig {
        dim: 8,
        epochs: 2,
        batch_size: 128,
        seed: 1,
        threads: 4,
        ..TrainConfig::default()
    };

    kgfd_obs::enable_tracing();
    kgfd_obs::collector().drain();
    let _ = train(ModelKind::DistMult, &data.train, &config);
    let records = kgfd_obs::collector().drain();
    kgfd_obs::disable_tracing();

    let by_id: std::collections::HashMap<u64, &kgfd_obs::SpanRecord> =
        records.iter().map(|r| (r.id, r)).collect();
    let shards: Vec<_> = records
        .iter()
        .filter(|r| r.name == "embed.train.shard")
        .collect();
    assert!(!shards.is_empty(), "expected embed.train.shard spans");
    let mut off_thread = 0;
    for shard in &shards {
        let batch = shard
            .parent
            .and_then(|p| by_id.get(&p))
            .unwrap_or_else(|| panic!("shard span {} has no recorded parent", shard.id));
        assert_eq!(batch.name, "embed.train.batch", "shard span {}", shard.id);
        off_thread += usize::from(batch.thread != shard.thread);
    }
    // Eight shards per batch in four chunks always dispatch, so the
    // hand-off to the fan-out's threads is what this checks.
    assert!(off_thread > 0, "no shard span ran off its batch's thread");
    // Every batch starts three short-lived threads, but each runs as the
    // lane of its chunk index: the trace has one track per lane, not one
    // per thread.
    let tracks: HashSet<u64> = records.iter().map(|r| r.thread).collect();
    assert!(
        tracks.len() <= config.threads,
        "{} trace tracks for {} threads",
        tracks.len(),
        config.threads
    );
}

#[test]
fn root_self_times_account_for_the_runs_wall_clock() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (data, model) = trained_mini_model(4);

    kgfd_obs::enable_tracing();
    kgfd_obs::collector().drain();
    // threads=1: spans are strictly nested in time, so self-times must
    // telescope back to the root totals.
    let report = discover_facts(model.as_ref(), &data.train, &discovery_config(1));
    let records = kgfd_obs::collector().drain();
    kgfd_obs::disable_tracing();

    let tree = TraceTree::build(records);
    let root_total = tree.root_total_us();
    let self_sum: u64 = tree.self_us.iter().sum();
    assert!(root_total > 0);

    let within = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * b.max(a);
    assert!(
        within(self_sum as f64, root_total as f64, 0.10),
        "sum of self-times ({self_sum}us) should be within 10% of the root \
         totals ({root_total}us)"
    );
    let wall_us = report.total.as_micros() as f64;
    assert!(
        within(root_total as f64, wall_us, 0.10),
        "root span total ({root_total}us) should be within 10% of the \
         report's wall clock ({wall_us}us)"
    );
}

type Fact = (u32, u32, u32, f64);

#[test]
fn tracing_does_not_perturb_embeddings_or_ranks() {
    let _guard = TRACE_LOCK.lock().unwrap();

    let run = |traced: bool| -> (Vec<u8>, Vec<Fact>) {
        if traced {
            kgfd_obs::enable_tracing();
        }
        let (data, model) = trained_mini_model(9);
        let report = discover_facts(model.as_ref(), &data.train, &discovery_config(4));
        if traced {
            kgfd_obs::collector().drain();
            kgfd_obs::disable_tracing();
        }
        let facts = report
            .facts
            .iter()
            .map(|f| {
                (
                    f.triple.subject.0,
                    f.triple.relation.0,
                    f.triple.object.0,
                    f.rank,
                )
            })
            .collect();
        (save_model(model.as_ref()).to_vec(), facts)
    };

    let (plain_bytes, plain_facts) = run(false);
    let (traced_bytes, traced_facts) = run(true);
    assert_eq!(
        plain_bytes, traced_bytes,
        "serialized embeddings must be bit-identical with tracing on"
    );
    assert_eq!(
        plain_facts, traced_facts,
        "discovered facts and ranks must be identical with tracing on"
    );
}
