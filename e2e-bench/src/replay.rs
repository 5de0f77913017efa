//! In-process replays of what `kgfd train`, `eval`, `discover` and the
//! `kgfd serve` handlers do, call for call and at one thread, with every
//! library call timed as a ledger layer. The replays produce the same
//! outputs as the binary, which the benchmark checks.

use crate::ledger::Ledger;
use crate::traffic::{Endpoint, Query, Request, DISCOVER_CANDIDATES};
use crate::workload::{DIM, MAX_CANDIDATES, TOP_N};
use crate::BenchResult;
use fact_discovery::{
    cached_measures, try_discover_facts, CandidateStream, DiscoveredFact, DiscoveryConfig,
    StrategyKind, TopKFacts,
};
use kgfd_embed::{
    read_model_file, write_model_file, KgeModel, LossKind, ModelKind, OptimizerKind, TrainConfig,
    TrainSession,
};
use kgfd_eval::{BatchRankStats, BatchRanker, RankingSummary, TripleRanks};
use kgfd_kg::{
    read_triples_tsv, EntityId, KnownTriples, RelationId, Triple, TripleStore, Vocabulary,
};
use std::collections::HashSet;
use std::fs::File;
use std::path::Path;
use std::time::Instant;

/// A graph as the binary loads it: labels interned in file order.
pub struct Graph {
    pub vocab: Vocabulary,
    pub store: TripleStore,
}

/// `read_triples_tsv` + `TripleStore::new`, as `kgfd` loads `--train`.
pub fn load_graph(path: &Path) -> BenchResult<Graph> {
    let mut vocab = Vocabulary::new();
    let triples = read_triples_tsv(File::open(path)?, &mut vocab)?;
    let store = TripleStore::new(vocab.num_entities(), vocab.num_relations(), triples)?;
    Ok(Graph { vocab, store })
}

/// Reads a held-out split against the training vocabulary.
fn load_with_vocab(path: &Path, vocab: &Vocabulary) -> BenchResult<Vec<Triple>> {
    let mut scratch = Vocabulary::new();
    let raw = read_triples_tsv(File::open(path)?, &mut scratch)?;
    raw.into_iter()
        .map(|t| {
            translate(t, &scratch, vocab).ok_or_else(|| "split label not in training graph".into())
        })
        .collect()
}

/// `t` from `from`'s ids to `to`'s ids, by label.
pub fn translate(t: Triple, from: &Vocabulary, to: &Vocabulary) -> Option<Triple> {
    Some(Triple {
        subject: to.entity(from.entity_label(t.subject)?)?,
        relation: to.relation(from.relation_label(t.relation)?)?,
        object: to.entity(from.entity_label(t.object)?)?,
    })
}

/// The inputs of every ranking call of a replay and their dedup accounting;
/// the kernel replay re-scores the same distinct queries.
#[derive(Default)]
pub struct RankLog {
    pub inputs: Vec<Vec<Triple>>,
    pub total_queries: u64,
    pub distinct_queries: u64,
}

impl RankLog {
    fn record(&mut self, triples: &[Triple], stats: BatchRankStats) {
        self.inputs.push(triples.to_vec());
        self.total_queries += stats.total_queries;
        self.distinct_queries += stats.distinct_queries;
    }
}

/// Facts and candidate count of one discovery.
#[derive(Default)]
pub struct Discovered {
    pub facts: Vec<DiscoveredFact>,
    pub candidates: usize,
}

/// The `TrainConfig` `kgfd train --model transe --dim 32` builds.
fn train_config(epochs: usize, seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        dim: DIM,
        epochs,
        batch_size: 256,
        negatives: 4,
        loss: LossKind::BinaryCrossEntropy,
        optimizer: OptimizerKind::Adam { lr: 0.01 },
        filter_negatives: true,
        normalize_entities: true,
        adversarial_temperature: None,
        seed,
        threads,
    }
}

/// `kgfd train --train <train> --out <out> --threads 1`.
pub fn train(
    ledger: &mut Ledger,
    train_tsv: &Path,
    out: &Path,
    epochs: usize,
    seed: u64,
) -> BenchResult<()> {
    let graph = ledger.time("kg.load", || load_graph(train_tsv))?;
    let config = train_config(epochs, seed, 1);
    let mut session = ledger.time("embed.train_init", || {
        TrainSession::new(ModelKind::TransE, &graph.store, &config)
    })?;
    for _ in 0..epochs {
        ledger.time("embed.train_epoch", || session.run_epoch());
    }
    ledger.time("embed.model_write", || {
        let (model, _) = session.into_model();
        write_model_file(out, model.as_ref())
    })?;
    // Freeing a structure is part of its layer's cost; untimed, it would
    // show as a hole in the ledger.
    ledger.time("kg.load", move || drop(graph));
    Ok(())
}

/// `kgfd eval --train <train> --test <test> --model-file <model>
/// --threads 1`; returns the stdout the binary prints.
pub fn eval(
    ledger: &mut Ledger,
    train_tsv: &Path,
    test_tsv: &Path,
    model_file: &Path,
    ranks: &mut RankLog,
) -> BenchResult<String> {
    let graph = ledger.time("kg.load", || load_graph(train_tsv))?;
    let test = ledger.time("kg.load", || load_with_vocab(test_tsv, &graph.vocab))?;
    let model = ledger.time("embed.model_read", || read_model_file(model_file))?;
    let known = ledger.time("kg.known_index", || {
        KnownTriples::from_slices([graph.store.triples(), &[][..], &test[..]])
    });
    let (rows, stats) = ledger.time("eval.rank", || {
        BatchRanker::new(model.as_ref(), 1).rank_all_with_stats(&test, Some(&known))
    });
    ranks.record(&test, stats);
    let summary = ledger.time("eval.summary", || {
        let flat: Vec<f64> = rows.iter().flat_map(|r| [r.subject, r.object]).collect();
        RankingSummary::from_ranks(&flat)
    });
    let stdout = format!(
        "filtered link prediction on {} test triples ({}):\n{summary}\n",
        test.len(),
        model.kind()
    );
    ledger.time("kg.known_index", move || drop(known));
    ledger.time("embed.model_read", move || drop(model));
    ledger.time("kg.load", move || drop((graph, test)));
    Ok(stdout)
}

/// The discovery configuration of `kgfd discover --strategy <strategy>`.
pub fn discover_config(strategy: StrategyKind, seed: u64, threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        strategy,
        top_n: TOP_N,
        max_candidates: MAX_CANDIDATES,
        seed,
        threads,
        ..DiscoveryConfig::default()
    }
}

/// `kgfd discover --train <train> --model-file <model> --threads 1`;
/// returns the graph (for rendering the facts) and the model (for the
/// kernel replay).
pub fn discover_cli(
    ledger: &mut Ledger,
    train_tsv: &Path,
    model_file: &Path,
    config: &DiscoveryConfig,
    ranks: &mut RankLog,
) -> BenchResult<(Graph, Box<dyn KgeModel>, Discovered)> {
    let graph = ledger.time("kg.load", || load_graph(train_tsv))?;
    let model = ledger.time("embed.model_read", || read_model_file(model_file))?;
    let found = discover(ledger, model.as_ref(), &graph.store, config, ranks)?;
    Ok((graph, model, found))
}

/// Algorithm 1 as `try_discover_facts` runs it with one worker: measures,
/// filter index, then per relation the candidate stream, chunk ranking
/// and the top-k heap.
pub fn discover(
    ledger: &mut Ledger,
    model: &dyn KgeModel,
    store: &TripleStore,
    config: &DiscoveryConfig,
    ranks: &mut RankLog,
) -> BenchResult<Discovered> {
    let measures = ledger.time("core.measures", || cached_measures(config.strategy, store));
    let known = ledger.time("kg.known_index", || {
        KnownTriples::from_slices([store.triples()])
    });
    let relations = config
        .relations
        .clone()
        .unwrap_or_else(|| store.used_relations());
    let ranker = BatchRanker::new(model, 1);
    let chunk_size = config.chunk_size.max(1);
    let mut found = Discovered::default();
    let mut chunk: Vec<Triple> = Vec::with_capacity(chunk_size);
    for r in relations {
        let mut stream = ledger.time("core.sampling", || {
            CandidateStream::for_relation(store, config, r, &measures, None, None)
        })?;
        let mut top = TopKFacts::new(config.top_k);
        loop {
            chunk.clear();
            ledger.time("core.sampling", || {
                stream.fill_chunk(&mut chunk, chunk_size)
            });
            if chunk.is_empty() {
                break;
            }
            let (rows, stats) = ledger.time("eval.rank", || {
                ranker.rank_all_with_stats(&chunk, Some(&known))
            });
            ranks.record(&chunk, stats);
            ledger.time("core.topk", || {
                for (t, row) in chunk.iter().zip(&rows) {
                    let rank = row.mean();
                    if rank <= config.top_n as f64 {
                        top.push(DiscoveredFact { triple: *t, rank });
                    }
                }
            });
        }
        found.candidates += stream.produced();
        let kept = ledger.time("core.topk", || top.into_ordered());
        found.facts.extend(kept);
    }
    ledger.time("kg.known_index", move || drop(known));
    Ok(found)
}

/// The facts file `kgfd discover --out` writes: sorted by rank (stable),
/// one `subject relation object rank` line each.
pub fn render_facts(vocab: &Vocabulary, facts: &[DiscoveredFact]) -> Vec<u8> {
    let mut sorted = facts.to_vec();
    sorted.sort_by(|a, b| a.rank.total_cmp(&b.rank));
    let mut out = String::new();
    for f in &sorted {
        out.push_str(&format!(
            "{}\t{}\t{}\t{:.1}\n",
            vocab.entity_label(f.triple.subject).unwrap_or("?"),
            vocab.relation_label(f.triple.relation).unwrap_or("?"),
            vocab.entity_label(f.triple.object).unwrap_or("?"),
            f.rank
        ));
    }
    out.into_bytes()
}

/// What `kgfd serve` holds after start-up.
pub struct ServeState {
    pub graph: Graph,
    pub known: KnownTriples,
    pub model: Box<dyn KgeModel>,
}

/// `kgfd serve` start-up: load the graph, build its filter index, load
/// the model.
pub fn serve_start(
    ledger: &mut Ledger,
    train_tsv: &Path,
    model_file: &Path,
) -> BenchResult<ServeState> {
    let graph = ledger.time("kg.load", || load_graph(train_tsv))?;
    let known = ledger.time("kg.known_index", || {
        KnownTriples::from_slices([graph.store.triples()])
    });
    let model = ledger.time("embed.model_read", || read_model_file(model_file))?;
    Ok(ServeState {
        graph,
        known,
        model,
    })
}

/// A request's query in the served graph's ids.
pub fn localize(request: &Request, from: &Vocabulary, state: &ServeState) -> Option<Query> {
    let to = &state.graph.vocab;
    Some(match &request.query {
        Query::Triples(ts) => Query::Triples(
            ts.iter()
                .map(|&t| translate(t, from, to))
                .collect::<Option<_>>()?,
        ),
        Query::Discover { relation, seed } => Query::Discover {
            relation: to.relation(from.relation_label(*relation)?)?,
            seed: *seed,
        },
    })
}

/// The discovery configuration `POST /v1/discover` builds for a request.
pub fn serve_discover_config(relation: RelationId, seed: u64, threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        strategy: StrategyKind::EntityFrequency,
        top_n: TOP_N,
        max_candidates: DISCOVER_CANDIDATES,
        relations: Some(vec![relation]),
        seed,
        threads,
        ..DiscoveryConfig::default()
    }
}

/// What a handler computed for one request.
pub enum Answer {
    Scores(Vec<f64>),
    Ranks(Vec<TripleRanks>),
    Facts(Vec<DiscoveredFact>),
}

impl Answer {
    /// The canonical text [`answer_text`] also derives from a response.
    pub fn text(&self, vocab: &Vocabulary) -> String {
        match self {
            Answer::Scores(scores) => format!("{scores:?}"),
            Answer::Ranks(rows) => {
                let pairs: Vec<(f64, f64)> = rows.iter().map(|r| (r.subject, r.object)).collect();
                format!("{pairs:?}")
            }
            Answer::Facts(facts) => facts_text(vocab, facts.iter().map(|f| (f.triple, f.rank))),
        }
    }
}

/// One served request's handler work at one thread, timed into `ledger`.
pub fn serve_request(
    ledger: &mut Ledger,
    state: &ServeState,
    endpoint: Endpoint,
    query: &Query,
    ranks: &mut RankLog,
    found: &mut Discovered,
) -> BenchResult<Answer> {
    let model = state.model.as_ref();
    Ok(match (endpoint, query) {
        (Endpoint::Score, Query::Triples(ts)) => Answer::Scores(ledger.time("embed.score", || {
            ts.iter().map(|&t| model.score(t) as f64).collect()
        })),
        (Endpoint::Rank, Query::Triples(ts)) => {
            let (rows, stats) = ledger.time("eval.rank", || {
                BatchRanker::new(model, 1).rank_all_with_stats(ts, Some(&state.known))
            });
            ranks.record(ts, stats);
            Answer::Ranks(rows)
        }
        (Endpoint::Discover, Query::Discover { relation, seed }) => {
            let config = serve_discover_config(*relation, *seed, 1);
            let d = discover(ledger, model, &state.graph.store, &config, ranks)?;
            found.candidates += d.candidates;
            found.facts.extend_from_slice(&d.facts);
            Answer::Facts(d.facts)
        }
        _ => return Err("request query does not match its endpoint".into()),
    })
}

/// The same request through the library entry points the handlers call,
/// at `threads` threads (untimed; the caller times the whole sample).
pub fn serve_request_direct(
    state: &ServeState,
    endpoint: Endpoint,
    query: &Query,
    threads: usize,
) -> BenchResult<()> {
    let model = state.model.as_ref();
    match (endpoint, query) {
        (Endpoint::Score, Query::Triples(ts)) => {
            std::hint::black_box(ts.iter().map(|&t| model.score(t)).sum::<f32>());
        }
        (Endpoint::Rank, Query::Triples(ts)) => {
            std::hint::black_box(BatchRanker::new(model, threads).rank_all(ts, Some(&state.known)));
        }
        (Endpoint::Discover, Query::Discover { relation, seed }) => {
            let config = serve_discover_config(*relation, *seed, threads);
            std::hint::black_box(try_discover_facts(model, &state.graph.store, &config)?);
        }
        _ => return Err("request query does not match its endpoint".into()),
    }
    Ok(())
}

fn facts_text(vocab: &Vocabulary, facts: impl Iterator<Item = (Triple, f64)>) -> String {
    let mut out = String::new();
    for (t, rank) in facts {
        out.push_str(&format!(
            "{} {} {} {rank:?};",
            vocab.entity_label(t.subject).unwrap_or("?"),
            vocab.relation_label(t.relation).unwrap_or("?"),
            vocab.entity_label(t.object).unwrap_or("?"),
        ));
    }
    out
}

/// A server response body in the canonical form [`serve_request`]
/// returns, so replay and server answers compare as strings.
pub fn answer_text(endpoint: Endpoint, body: &serde_json::Value) -> Option<String> {
    Some(match endpoint {
        Endpoint::Score => {
            let scores: Vec<f64> = body["scores"]
                .as_array()?
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<_>>()?;
            format!("{scores:?}")
        }
        Endpoint::Rank => {
            let pairs: Vec<(f64, f64)> = body["ranks"]
                .as_array()?
                .iter()
                .map(|v| Some((v["subject"].as_f64()?, v["object"].as_f64()?)))
                .collect::<Option<_>>()?;
            format!("{pairs:?}")
        }
        Endpoint::Discover => {
            let mut out = String::new();
            for f in body["facts"].as_array()? {
                out.push_str(&format!(
                    "{} {} {} {:?};",
                    f["subject"].as_str()?,
                    f["relation"].as_str()?,
                    f["object"].as_str()?,
                    f["rank"].as_f64()?
                ));
            }
            out
        }
    })
}

/// Re-scores every distinct side query of the logged ranking calls through
/// the batched kernels (the tiles `BatchRanker` uses) and returns the
/// seconds taken and the number of queries.
pub fn kernel(model: &dyn KgeModel, log: &RankLog) -> (f64, u64) {
    const TILE: usize = 16;
    let mut objects: Vec<(EntityId, RelationId)> = Vec::new();
    let mut subjects: Vec<(RelationId, EntityId)> = Vec::new();
    for input in &log.inputs {
        let mut seen_o = HashSet::new();
        let mut seen_s = HashSet::new();
        for t in input {
            if seen_o.insert((t.subject, t.relation)) {
                objects.push((t.subject, t.relation));
            }
            if seen_s.insert((t.relation, t.object)) {
                subjects.push((t.relation, t.object));
            }
        }
    }
    let n = model.num_entities();
    let mut scores = vec![0.0f32; TILE * n];
    let start = Instant::now();
    for tile in objects.chunks(TILE) {
        model.score_objects_batch(tile, &mut scores[..tile.len() * n]);
        std::hint::black_box(&scores);
    }
    for tile in subjects.chunks(TILE) {
        model.score_subjects_batch(tile, &mut scores[..tile.len() * n]);
        std::hint::black_box(&scores);
    }
    (
        start.elapsed().as_secs_f64(),
        (objects.len() + subjects.len()) as u64,
    )
}
