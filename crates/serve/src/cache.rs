//! An fxhash LRU cache of rendered responses.
//!
//! Keyed by `(endpoint, model generation, exact request body bytes)`: the
//! generation comes from the [`crate::ModelRegistry`], so a hot reload
//! invalidates every cached answer for that model without any scan, and
//! keying on the raw body bytes (rather than a parsed form) guarantees a
//! hit can only ever replay a byte-identical request. The stored value is
//! the exact response body served on the cold path, so cached and uncached
//! answers are bit-identical — the determinism contract the conformance
//! tests assert.
//!
//! Recency is a monotonic tick per entry; eviction scans for the minimum
//! (the cache is small — hundreds of entries — so O(n) eviction beats the
//! constant factor of an intrusive list). Ticks are unique, so the victim,
//! and with it every response, header and counter, is independent of the
//! map's bucket layout.

use fxhash::FxBuildHasher;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a hit replays: the status is always 200 (only successful answers
/// are cached), so just the body bytes.
pub type CachedBody = Arc<Vec<u8>>;

type Key = (&'static str, u64, Vec<u8>);

struct Entry {
    last_used: u64,
    body: CachedBody,
}

struct Inner {
    map: HashMap<Key, Entry, FxBuildHasher>,
    tick: u64,
}

/// Bounded LRU of `(endpoint, generation, body) → response bytes` with
/// hit/miss counters on the obs registry.
pub struct ResponseCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity_and_hasher(
                    capacity.min(1024),
                    FxBuildHasher::default(),
                ),
                tick: 0,
            }),
            capacity,
        }
    }

    /// Looks up a response, refreshing its recency. Counts
    /// `serve.cache.hits` / `serve.cache.misses`.
    pub fn get(&self, endpoint: &'static str, generation: u64, body: &[u8]) -> Option<CachedBody> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner
            .map
            .get_mut(&(endpoint, generation, body.to_vec()))
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.body)
            });
        match &found {
            Some(_) => kgfd_obs::counter("serve.cache.hits").inc(),
            None => kgfd_obs::counter("serve.cache.misses").inc(),
        }
        found
    }

    /// Stores a cold-path response, evicting the least-recently-used entry
    /// when full.
    pub fn insert(
        &self,
        endpoint: &'static str,
        generation: u64,
        body: Vec<u8>,
        response: CachedBody,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity
            && !inner
                .map
                .contains_key(&(endpoint, generation, body.clone()))
        {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                kgfd_obs::counter("serve.cache.evictions").inc();
            }
        }
        inner.map.insert(
            (endpoint, generation, body),
            Entry {
                last_used: tick,
                body: response,
            },
        );
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache state. Every update leaves the map consistent (a panic
    /// can at worst skip a recency tick), so poisoning is recovered.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> CachedBody {
        Arc::new(text.as_bytes().to_vec())
    }

    #[test]
    fn hit_replays_the_exact_bytes() {
        let cache = ResponseCache::new(4);
        cache.insert("/v1/score", 1, b"q".to_vec(), body("answer"));
        let hit = cache.get("/v1/score", 1, b"q").expect("hit");
        assert_eq!(&**hit, b"answer");
    }

    #[test]
    fn generation_bump_misses() {
        let cache = ResponseCache::new(4);
        cache.insert("/v1/score", 1, b"q".to_vec(), body("stale"));
        assert!(cache.get("/v1/score", 2, b"q").is_none());
    }

    #[test]
    fn endpoint_is_part_of_the_key() {
        let cache = ResponseCache::new(4);
        cache.insert("/v1/score", 1, b"q".to_vec(), body("scores"));
        assert!(cache.get("/v1/rank", 1, b"q").is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.insert("/v1/score", 1, b"a".to_vec(), body("A"));
        cache.insert("/v1/score", 1, b"b".to_vec(), body("B"));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get("/v1/score", 1, b"a").is_some());
        cache.insert("/v1/score", 1, b"c".to_vec(), body("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("/v1/score", 1, b"a").is_some());
        assert!(cache.get("/v1/score", 1, b"b").is_none());
        assert!(cache.get("/v1/score", 1, b"c").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        cache.insert("/v1/score", 1, b"q".to_vec(), body("x"));
        assert!(cache.get("/v1/score", 1, b"q").is_none());
        assert!(cache.is_empty());
    }
}
