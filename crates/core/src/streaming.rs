//! The streaming candidate path: generator-driven, bounded-memory building
//! blocks behind [`crate::discover_facts`].
//!
//! Two pieces:
//!
//! * [`CandidateStream`] — Algorithm 1's generation loop (lines 4–13) as a
//!   resumable iterator. It consumes the per-relation RNG stream in the
//!   order the paper's loop does (all `sample_size` subject draws, then all
//!   object draws, then the subject-major mesh walk), so the sequence of
//!   candidates is the same at any chunking as materializing the whole
//!   mesh first (`tests/discovery_streaming.rs` checks this).
//! * [`TopKFacts`] — a bounded max-heap keeping the `k` best facts under
//!   the total order `(rank, subject, relation, object)` (ranks compared
//!   with `f64::total_cmp`; the id triple breaks rank ties, and distinct
//!   triples make the key unique, so the kept set is independent of arrival
//!   order). Kept facts are emitted in generation order, which makes an
//!   unbounded heap (`top_k = None`) reproduce the fact vector of keeping
//!   every candidate within `top_n`, in the order generated.

use crate::{
    compute_weights, AliasSampler, CandidateRules, DiscoveredFact, DiscoveryConfig, Measures,
};
use fxhash::{FxBuildHasher, FxHashSet};
use kgfd_kg::{EntityId, KgError, RelationId, SideIndex, Triple, TripleStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// Candidate stream
// ---------------------------------------------------------------------------

/// Deterministic candidate iterator for one relation — the generation loop
/// of Algorithm 1 in resumable form. Yields each candidate triple exactly
/// once (never a triple already in the graph), respects the
/// `max_candidates` budget and the `max_iterations` bound, and tracks the
/// loop's bookkeeping (`iterations`, `pruned`).
pub struct CandidateStream<'a> {
    store: &'a TripleStore,
    rules: Option<&'a CandidateRules>,
    relation: RelationId,
    subject_pool: &'a SideIndex,
    object_pool: &'a SideIndex,
    /// `None` when either pool is empty: the stream is born exhausted.
    samplers: Option<(AliasSampler, AliasSampler)>,
    rng: StdRng,
    seen: FxHashSet<Triple>,
    sample_size: usize,
    max_candidates: usize,
    max_iterations: usize,
    s_samples: Vec<EntityId>,
    o_samples: Vec<EntityId>,
    si: usize,
    oi: usize,
    produced: usize,
    iterations: usize,
    pruned: usize,
}

impl<'a> CandidateStream<'a> {
    /// Builds the stream for relation `r`: resolves the side pools
    /// (per-relation, or the consolidated graph-global ones), computes the
    /// strategy weights, applies the exploration mix, and seeds the
    /// relation's independent RNG stream.
    ///
    /// Returns [`KgError::NonFiniteWeight`] if the computed weights contain
    /// a NaN or infinity (impossible for the built-in strategies, which
    /// normalize defensively, but enforced at the sampler boundary).
    pub fn for_relation(
        store: &'a TripleStore,
        config: &DiscoveryConfig,
        r: RelationId,
        measures: &Measures,
        rules: Option<&'a CandidateRules>,
        consolidated: Option<&'a (SideIndex, SideIndex)>,
    ) -> Result<CandidateStream<'a>, KgError> {
        // Independent stream per relation: results do not depend on which
        // other relations run or in what order.
        let stream_seed = config
            .seed
            .wrapping_add((r.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (subject_pool, object_pool) = match consolidated {
            Some((s_pool, o_pool)) => (s_pool, o_pool),
            None => (store.subject_index(r), store.object_index(r)),
        };
        let samplers = if subject_pool.is_empty() || object_pool.is_empty() {
            None
        } else {
            let mut s_weights = compute_weights(config.strategy, measures, subject_pool);
            let mut o_weights = compute_weights(config.strategy, measures, object_pool);
            if config.exploration_epsilon > 0.0 {
                mix_uniform(&mut s_weights, config.exploration_epsilon);
                mix_uniform(&mut o_weights, config.exploration_epsilon);
            }
            Some((
                AliasSampler::try_new(&s_weights)?,
                AliasSampler::try_new(&o_weights)?,
            ))
        };
        // Line 4: the mesh grid is sample_size², so √max_candidates (+10
        // slack) entities per side fill the budget in one iteration in
        // expectation.
        let sample_size = (config.max_candidates as f64).sqrt() as usize + 10;
        Ok(CandidateStream {
            store,
            rules,
            relation: r,
            subject_pool,
            object_pool,
            samplers,
            rng: StdRng::seed_from_u64(stream_seed),
            // Seeded fast-hash dedup: candidate volume is bounded by
            // `max_candidates`, so pre-size the set to skip rehashing, capped
            // as `TopKFacts::new` caps its heap so a large budget grows the
            // set on demand instead of reserving it up front; the seed keeps
            // bucket layout independent of any ambient hasher randomisation.
            seen: FxHashSet::with_capacity_and_hasher(
                config.max_candidates.saturating_mul(2).min(1024),
                FxBuildHasher::seeded(stream_seed),
            ),
            sample_size,
            max_candidates: config.max_candidates,
            max_iterations: config.max_iterations,
            s_samples: Vec::new(),
            o_samples: Vec::new(),
            si: 0,
            oi: 0,
            produced: 0,
            iterations: 0,
            pruned: 0,
        })
    }

    /// Appends candidates to `out` until it holds `chunk_size` entries or
    /// the stream is exhausted. `out` is the caller's reusable buffer — the
    /// only per-chunk allocation site — so the live candidate footprint is
    /// bounded by `chunk_size` regardless of `max_candidates`.
    pub fn fill_chunk(&mut self, out: &mut Vec<Triple>, chunk_size: usize) {
        while out.len() < chunk_size {
            match self.next_candidate() {
                Some(t) => out.push(t),
                None => break,
            }
        }
    }

    /// Yields the next candidate triple, or `None` when the budget is
    /// spent, the iteration bound is hit, or a pool is empty.
    pub fn next_candidate(&mut self) -> Option<Triple> {
        let (s_sampler, o_sampler) = self.samplers.as_ref()?;
        loop {
            if self.produced >= self.max_candidates {
                return None;
            }
            // Lines 11–13: walk the current mesh grid subject-major,
            // skipping known triples, duplicates, and rule-pruned ones.
            while self.si < self.s_samples.len() {
                while self.oi < self.o_samples.len() {
                    let t = Triple {
                        subject: self.s_samples[self.si],
                        relation: self.relation,
                        object: self.o_samples[self.oi],
                    };
                    self.oi += 1;
                    if self.store.contains(&t) || !self.seen.insert(t) {
                        continue;
                    }
                    if let Some(rules) = self.rules {
                        if !rules.admits(self.store, &t) {
                            self.pruned += 1;
                            continue;
                        }
                    }
                    self.produced += 1;
                    return Some(t);
                }
                self.si += 1;
                self.oi = 0;
            }
            // Mesh exhausted: draw the next iteration's samples, or stop.
            if self.iterations >= self.max_iterations {
                return None;
            }
            self.iterations += 1;
            self.s_samples = (0..self.sample_size)
                .map(|_| self.subject_pool.entities[s_sampler.sample(&mut self.rng)])
                .collect();
            self.o_samples = (0..self.sample_size)
                .map(|_| self.object_pool.entities[o_sampler.sample(&mut self.rng)])
                .collect();
            self.si = 0;
            self.oi = 0;
        }
    }

    /// The relation this stream generates candidates for.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// Candidates yielded so far (≤ `max_candidates`).
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Generation-loop iterations consumed so far (≤ `max_iterations`).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Candidates rejected by the structural pruning rules so far.
    pub fn pruned(&self) -> usize {
        self.pruned
    }
}

impl Iterator for CandidateStream<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        self.next_candidate()
    }
}

/// `w ← (1 − ε) w + ε / n` — keeps every pool member reachable.
fn mix_uniform(weights: &mut [f64], epsilon: f64) {
    let epsilon = epsilon.clamp(0.0, 1.0);
    let u = epsilon / weights.len() as f64;
    for w in weights.iter_mut() {
        *w = (1.0 - epsilon) * *w + u;
    }
}

// ---------------------------------------------------------------------------
// Bounded top-k fact heap
// ---------------------------------------------------------------------------

/// The total order deciding which facts a bounded [`TopKFacts`] keeps:
/// ascending `(rank, subject, relation, object)` — lower is better. Ranks
/// use `f64::total_cmp`; the id triple breaks exact rank ties, and since
/// candidate triples are distinct the key is unique, making the kept set
/// independent of arrival order.
pub fn fact_order(a: &DiscoveredFact, b: &DiscoveredFact) -> Ordering {
    a.rank
        .total_cmp(&b.rank)
        .then(a.triple.subject.0.cmp(&b.triple.subject.0))
        .then(a.triple.relation.0.cmp(&b.triple.relation.0))
        .then(a.triple.object.0.cmp(&b.triple.object.0))
}

struct HeapEntry {
    fact: DiscoveredFact,
    /// Arrival number of this fact, used to restore generation order at
    /// emission.
    seq: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        fact_order(&self.fact, &other.fact) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        fact_order(&self.fact, &other.fact)
    }
}

/// Fixed-capacity collection of the best facts seen so far — a max-heap on
/// [`fact_order`] whose root is the *worst* kept fact, evicted whenever a
/// better one arrives. With `capacity = None` nothing is ever evicted and
/// [`TopKFacts::into_ordered`] reproduces insertion order exactly.
pub struct TopKFacts {
    cap: usize,
    heap: BinaryHeap<HeapEntry>,
    next_seq: usize,
}

impl TopKFacts {
    /// A heap keeping at most `capacity` facts (`None` = unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        let cap = capacity.unwrap_or(usize::MAX);
        TopKFacts {
            cap,
            heap: BinaryHeap::with_capacity(cap.min(1024)),
            next_seq: 0,
        }
    }

    /// Offers a fact; returns `true` if it was kept (possibly evicting the
    /// currently-worst fact under [`fact_order`]).
    pub fn push(&mut self, fact: DiscoveredFact) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.cap == 0 {
            return false;
        }
        if self.heap.len() < self.cap {
            self.heap.push(HeapEntry { fact, seq });
            return true;
        }
        let worst = self.heap.peek().expect("cap > 0 and heap full");
        if fact_order(&fact, &worst.fact) == Ordering::Less {
            self.heap.pop();
            self.heap.push(HeapEntry { fact, seq });
            true
        } else {
            false
        }
    }

    /// Number of facts currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept facts in their original arrival (generation) order.
    pub fn into_ordered(self) -> Vec<DiscoveredFact> {
        let mut entries = self.heap.into_vec();
        entries.sort_unstable_by_key(|e| e.seq);
        entries.into_iter().map(|e| e.fact).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::Triple;

    fn fact(s: u32, r: u32, o: u32, rank: f64) -> DiscoveredFact {
        DiscoveredFact {
            triple: Triple::new(s, r, o),
            rank,
        }
    }

    #[test]
    fn unbounded_heap_preserves_insertion_order() {
        let mut top = TopKFacts::new(None);
        let facts = [fact(3, 0, 1, 5.0), fact(1, 0, 2, 2.0), fact(2, 1, 0, 9.0)];
        for f in facts {
            assert!(top.push(f));
        }
        assert_eq!(top.into_ordered(), facts.to_vec());
    }

    #[test]
    fn bounded_heap_keeps_the_k_best_and_evicts_the_worst() {
        let mut top = TopKFacts::new(Some(2));
        assert!(top.push(fact(0, 0, 1, 7.0)));
        assert!(top.push(fact(0, 0, 2, 3.0)));
        // Better than the worst kept (rank 7): evict it.
        assert!(top.push(fact(0, 0, 3, 5.0)));
        // Worse than everything kept: rejected.
        assert!(!top.push(fact(0, 0, 4, 9.0)));
        let kept = top.into_ordered();
        assert_eq!(kept, vec![fact(0, 0, 2, 3.0), fact(0, 0, 3, 5.0)]);
    }

    #[test]
    fn rank_ties_break_on_subject_relation_object() {
        let mut top = TopKFacts::new(Some(1));
        assert!(top.push(fact(5, 1, 1, 4.0)));
        // Same rank, smaller subject: wins the tie.
        assert!(top.push(fact(2, 9, 9, 4.0)));
        // Same rank and subject, larger relation: loses.
        assert!(!top.push(fact(2, 10, 0, 4.0)));
        assert_eq!(top.into_ordered(), vec![fact(2, 9, 9, 4.0)]);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut top = TopKFacts::new(Some(0));
        assert!(!top.push(fact(0, 0, 1, 1.0)));
        assert!(top.is_empty());
        assert!(top.into_ordered().is_empty());
    }
}
