//! Model registry: the set of embedding models a server answers with.
//!
//! Models are loaded from `kgfd train` model files at startup and can be
//! hot-reloaded from their original path (`POST /v1/reload`) without a
//! restart. Every load — initial or reload — assigns a fresh process-wide
//! *generation* number; the response cache keys on it, so a reload
//! atomically invalidates all cached answers computed by the replaced
//! parameters while leaving other models' entries warm.
//!
//! All models share one [`GraphContext`] (the training graph the server
//! was started with): its vocabulary translates request labels to dense
//! ids, its store feeds discovery, and its [`KnownTriples`] index provides
//! the filtered ranking protocol. A model whose entity/relation counts do
//! not match the graph is refused at load time — serving with a
//! mismatched vocabulary would silently score the wrong embeddings.

use kgfd_embed::{read_model_file, KgeModel};
use kgfd_kg::{KgError, KnownTriples, TripleStore, Vocabulary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// The graph every request is interpreted against.
pub struct GraphContext {
    /// Label ↔ dense-id mapping of the training graph.
    pub vocab: Vocabulary,
    /// The training triples (discovery candidates are drawn from it).
    pub store: TripleStore,
    /// Filter index over the training triples for ranked queries.
    pub known: KnownTriples,
}

impl GraphContext {
    /// Builds the context (including the filter index) from a loaded graph.
    pub fn new(vocab: Vocabulary, store: TripleStore) -> GraphContext {
        let known = KnownTriples::from_slices([store.triples()]);
        GraphContext {
            vocab,
            store,
            known,
        }
    }
}

/// One servable model: parameters plus provenance.
pub struct ModelEntry {
    /// Name requests address it by.
    pub name: String,
    /// File it was (re)loaded from.
    pub path: PathBuf,
    /// Cache-invalidation token; unique per (re)load.
    pub generation: u64,
    /// The embedding model itself (`KgeModel: Send + Sync`).
    pub model: Box<dyn KgeModel>,
}

/// Thread-safe name → model map with hot reload.
pub struct ModelRegistry {
    graph: Arc<GraphContext>,
    models: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
    next_generation: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry serving against `graph`.
    pub fn new(graph: GraphContext) -> ModelRegistry {
        ModelRegistry {
            graph: Arc::new(graph),
            models: RwLock::new(BTreeMap::new()),
            next_generation: AtomicU64::new(1),
        }
    }

    /// The shared graph context.
    pub fn graph(&self) -> &Arc<GraphContext> {
        &self.graph
    }

    /// Loads (or replaces) `name` from `path`, returning the new entry's
    /// generation. Typed persistence errors (corruption, version skew) pass
    /// through untouched so callers keep their exit-code mapping.
    pub fn load(&self, name: &str, path: impl Into<PathBuf>) -> Result<u64, KgError> {
        let path = path.into();
        let model = read_model_file(&path)?;
        if model.num_entities() != self.graph.store.num_entities()
            || model.num_relations() != self.graph.store.num_relations()
        {
            return Err(KgError::Invariant(format!(
                "model {name:?} shape ({} entities, {} relations) does not match the served \
                 graph ({} entities, {} relations)",
                model.num_entities(),
                model.num_relations(),
                self.graph.store.num_entities(),
                self.graph.store.num_relations()
            )));
        }
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            path,
            generation,
            model,
        });
        self.models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), entry);
        kgfd_obs::counter("serve.model_loads").inc();
        Ok(generation)
    }

    /// Re-reads `name` from the path it was originally loaded from. The
    /// new generation makes every cached response for the model stale.
    pub fn reload(&self, name: &str) -> Result<u64, KgError> {
        let path = self
            .read()
            .get(name)
            .map(|e| e.path.clone())
            .ok_or_else(|| KgError::Invariant(format!("no model named {name:?} is loaded")))?;
        self.load(name, path)
    }

    /// The current entry for `name`, if loaded. In-flight requests holding
    /// an older `Arc` finish against the parameters they started with.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.read().get(name).cloned()
    }

    /// Loaded model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no model is loaded.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Read access to the model table. Writers only ever insert a complete
    /// entry, so a poisoned lock still guards a consistent map.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<ModelEntry>>> {
        self.models.read().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_datasets::toy_biomedical;
    use kgfd_embed::{train, write_model_file, ModelKind, TrainConfig};

    fn toy_registry() -> (ModelRegistry, PathBuf) {
        let data = toy_biomedical();
        let config = TrainConfig {
            dim: 8,
            epochs: 5,
            seed: 3,
            ..TrainConfig::default()
        };
        let (model, _) = train(ModelKind::DistMult, &data.train, &config);
        let dir = std::env::temp_dir().join(format!("kgfd-serve-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.kgm");
        write_model_file(&path, model.as_ref()).unwrap();
        let registry = ModelRegistry::new(GraphContext::new(data.vocab, data.train));
        (registry, path)
    }

    #[test]
    fn load_reload_bumps_generation() {
        let (registry, path) = toy_registry();
        let g1 = registry.load("toy", &path).unwrap();
        let g2 = registry.reload("toy").unwrap();
        assert!(g2 > g1, "reload must produce a fresh generation");
        assert_eq!(registry.names(), vec!["toy".to_string()]);
        assert_eq!(registry.get("toy").unwrap().generation, g2);
        assert!(registry.get("absent").is_none());
    }

    #[test]
    fn reload_of_unknown_model_is_a_typed_error() {
        let (registry, _path) = toy_registry();
        assert!(matches!(
            registry.reload("ghost"),
            Err(KgError::Invariant(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_refused() {
        let (registry, path) = toy_registry();
        // A model trained on a different graph (one entity fewer).
        let data = toy_biomedical();
        let mut vocab = Vocabulary::new();
        let triples = {
            let mut scratch = Vec::new();
            for t in data.train.triples().iter().take(4) {
                let s = vocab.intern_entity(data.vocab.entity_label(t.subject).unwrap());
                let r = vocab.intern_relation(data.vocab.relation_label(t.relation).unwrap());
                let o = vocab.intern_entity(data.vocab.entity_label(t.object).unwrap());
                scratch.push(kgfd_kg::Triple {
                    subject: s,
                    relation: r,
                    object: o,
                });
            }
            scratch
        };
        let small = TripleStore::new(vocab.num_entities(), vocab.num_relations(), triples).unwrap();
        let (model, _) = train(
            ModelKind::DistMult,
            &small,
            &TrainConfig {
                dim: 8,
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        let small_path = path.with_file_name("small.kgm");
        write_model_file(&small_path, model.as_ref()).unwrap();
        match registry.load("small", &small_path) {
            Err(KgError::Invariant(msg)) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!("expected shape refusal, got {other:?}"),
        }
    }
}
