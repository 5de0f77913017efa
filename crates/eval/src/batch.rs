//! The batched, query-deduplicated ranking engine.
//!
//! Ranking a triple needs two full entity sweeps — one per corruption side —
//! and the scalar path ([`crate::rank_triple`] per triple) pays them per
//! triple even when triples share a side query. Discovery candidates are the
//! extreme case: a mesh grid of `√max_candidates` entities per side yields
//! up to `max_candidates` triples per relation that share only
//! `~√max_candidates` distinct `(s, r)` object-side and `(r, o)`
//! subject-side queries (a ~16× redundancy at the paper's budget of 500).
//!
//! [`BatchRanker`] instead:
//!
//! 1. groups the input triples by distinct `(s, r)` and `(r, o)` side
//!    queries (first-appearance order, so grouping is deterministic) into a
//!    flat CSR layout — no per-group allocations;
//! 2. scores each distinct query **exactly once** through the model's tiled
//!    [`score_objects_batch`](KgeModel::score_objects_batch) /
//!    [`score_subjects_batch`](KgeModel::score_subjects_batch) kernels;
//! 3. resolves every dependent triple's rank from the shared score row;
//! 4. parallelises across *query groups* (not triples) through
//!    [`kgfd_pool::fan_out`] with a deterministic merge — each
//!    (triple, side) slot has exactly one writer, so results are identical
//!    at any thread count.
//!
//! **Unique-workload bypass.** Eval-shaped inputs have no repeated side
//! queries (`dedup_ratio` 1.0); the group/resolve indirection is then pure
//! overhead. When grouping finds `distinct == total` for a side, the engine
//! skips group materialization entirely and scores rows straight off the
//! triple list ([`rank_rows_direct`]), writing ranks into disjoint output
//! chunks. Ranks are identical either way — the bypass reads the same
//! score rows and exclusion lists.
//!
//! **Scratch reuse.** Score rows live in a per-thread scratch buffer that
//! persists across calls on that thread. The calling thread runs chunk 0
//! of every fan-out, so its buffer is reused from pass to pass; a thread
//! the fan-out starts allocates one buffer for the pass it runs.
//!
//! Scores from the batched kernels are bit-identical to the single-query
//! kernels (see `kgfd_embed::batch`: the vector runs across a tile's
//! queries, never along a sum), and every rank comes from the same
//! [`rank_with_exclusions`] count, so the ranks produced here are *equal* —
//! not merely close — to [`crate::rank_triple`]'s.
//!
//! Observability: each pass records `eval.rank.total_queries`,
//! `eval.rank.distinct_queries`, the `eval.rank.dedup_ratio` gauge, and a
//! per-tile `eval.rank.batch_kernel_us` histogram via `kgfd-obs`.

use crate::{rank_with_exclusions, TripleRanks};
use fxhash::{FxBuildHasher, FxHashMap};
use kgfd_embed::KgeModel;
use kgfd_kg::{EntityId, KnownTriples, RelationId, Triple};
use std::cell::RefCell;

/// Queries scored per batch-kernel call inside each worker; bounds a
/// worker's scratch buffer at `WORKER_TILE × num_entities` floats while
/// letting the model's internal tile (`kgfd_embed::batch::QUERY_TILE`)
/// amortise the entity-table sweep.
const WORKER_TILE: usize = 16;

thread_local! {
    /// Per-thread score-row scratch, reused across kernel tiles *and*
    /// across the ranking passes a thread runs.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over a zeroed-capacity thread-local scratch of at least `len`
/// floats. The kernels overwrite every slot they read back, so stale
/// contents from previous passes are harmless.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Work-sharing accounting of one [`BatchRanker`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRankStats {
    /// Side queries implied by the input (two per triple).
    pub total_queries: u64,
    /// Distinct `(s, r)` plus distinct `(r, o)` queries actually scored.
    pub distinct_queries: u64,
}

impl BatchRankStats {
    /// `total / distinct` — how much entity-sweep work deduplication saved
    /// (1.0 = every query unique; discovery-shaped inputs reach ~16×).
    pub fn dedup_ratio(&self) -> f64 {
        if self.distinct_queries == 0 {
            return 1.0;
        }
        self.total_queries as f64 / self.distinct_queries as f64
    }
}

/// One corruption side's grouping outcome.
enum SideGroups {
    /// Every side query was distinct (`dedup_ratio` 1.0): skip the group
    /// indirection and rank rows straight off the triple list.
    Unique,
    /// Grouped queries in flat CSR form.
    Grouped(QueryGroups),
}

/// Distinct side queries and their dependent triples, CSR-packed:
/// group `g` covers `dependents[starts[g] as usize..starts[g + 1] as usize]`.
struct QueryGroups {
    /// `(subject, relation)` for the object side, `(relation, object)` for
    /// the subject side — raw ids to keep the key `Copy + Hash`;
    /// first-appearance order.
    keys: Vec<(u32, u32)>,
    /// CSR offsets into `dependents`, length `keys.len() + 1`.
    starts: Vec<u32>,
    /// `(triple index, rank target)` pairs, grouped by query, input order
    /// within each group.
    dependents: Vec<(u32, EntityId)>,
}

/// The side query key and rank target of one triple.
#[inline]
fn side_key(t: &Triple, object_side: bool) -> ((u32, u32), EntityId) {
    if object_side {
        ((t.subject.0, t.relation.0), t.object)
    } else {
        ((t.relation.0, t.object.0), t.subject)
    }
}

/// Groups `triples` by their distinct side query, preserving
/// first-appearance order (deterministic for a fixed input order). Returns
/// the groups plus the distinct-query count. Detecting `distinct == total`
/// costs one hash pass; only duplicated inputs pay for CSR materialization.
fn group_queries(triples: &[Triple], object_side: bool) -> (SideGroups, usize) {
    let mut index: FxHashMap<(u32, u32), u32> =
        FxHashMap::with_capacity_and_hasher(triples.len(), FxBuildHasher::default());
    let mut gid_of: Vec<u32> = Vec::with_capacity(triples.len());
    let mut keys: Vec<(u32, u32)> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for t in triples {
        let (key, _) = side_key(t, object_side);
        let gid = *index.entry(key).or_insert_with(|| {
            keys.push(key);
            counts.push(0);
            (keys.len() - 1) as u32
        });
        counts[gid as usize] += 1;
        gid_of.push(gid);
    }
    let distinct = keys.len();
    if distinct == triples.len() {
        return (SideGroups::Unique, distinct);
    }

    let mut starts = vec![0u32; distinct + 1];
    for (g, &c) in counts.iter().enumerate() {
        starts[g + 1] = starts[g] + c;
    }
    let mut cursor: Vec<u32> = starts[..distinct].to_vec();
    let mut dependents = vec![(0u32, EntityId(0)); triples.len()];
    for (i, t) in triples.iter().enumerate() {
        let (_, target) = side_key(t, object_side);
        let gid = gid_of[i] as usize;
        dependents[cursor[gid] as usize] = (i as u32, target);
        cursor[gid] += 1;
    }
    (
        SideGroups::Grouped(QueryGroups {
            keys,
            starts,
            dependents,
        }),
        distinct,
    )
}

/// Scores one tile of side queries through the batched kernel into `out`
/// (`tile.len() × n` floats), recording the kernel histogram and a
/// trace-only span exactly like the pre-pool engine did.
fn score_tile(model: &dyn KgeModel, tile: &[(u32, u32)], object_side: bool, out: &mut [f32]) {
    let tile_span = kgfd_obs::span_traced!("eval.rank.batch_kernel");
    let kernel = std::time::Instant::now();
    if object_side {
        let queries: Vec<(EntityId, RelationId)> = tile
            .iter()
            .map(|&(a, b)| (EntityId(a), RelationId(b)))
            .collect();
        model.score_objects_batch(&queries, out);
    } else {
        let queries: Vec<(RelationId, EntityId)> = tile
            .iter()
            .map(|&(a, b)| (RelationId(a), EntityId(b)))
            .collect();
        model.score_subjects_batch(&queries, out);
    }
    kgfd_obs::histogram("eval.rank.batch_kernel_us").record(kernel.elapsed().as_secs_f64() * 1e6);
    drop(tile_span);
}

/// The exclusion list for one side query under the filtered protocol.
#[inline]
fn exclusions(known: Option<&KnownTriples>, key: (u32, u32), object_side: bool) -> &[EntityId] {
    known.map_or(&[][..], |k| {
        if object_side {
            k.true_objects(EntityId(key.0), RelationId(key.1))
        } else {
            k.true_subjects(RelationId(key.0), EntityId(key.1))
        }
    })
}

/// Scores a contiguous range of query groups (in tiles of [`WORKER_TILE`])
/// and resolves every dependent rank from the shared rows. `starts` carries
/// the groups' absolute CSR offsets into the full `dependents` slice. Runs
/// as one chunk of a fan-out; score rows come from the thread's scratch.
fn rank_groups(
    model: &dyn KgeModel,
    keys: &[(u32, u32)],
    starts: &[u32],
    dependents: &[(u32, EntityId)],
    known: Option<&KnownTriples>,
    object_side: bool,
) -> Vec<(u32, f64)> {
    let n = model.num_entities();
    let span = starts.last().copied().unwrap_or(0) - starts.first().copied().unwrap_or(0);
    let mut results = Vec::with_capacity(span as usize);
    with_scratch(WORKER_TILE.min(keys.len().max(1)) * n, |scores| {
        for (tile_i, tile) in keys.chunks(WORKER_TILE).enumerate() {
            let out = &mut scores[..tile.len() * n];
            score_tile(model, tile, object_side, out);
            for (slot, &key) in tile.iter().enumerate() {
                let row = &out[slot * n..(slot + 1) * n];
                let exclude = exclusions(known, key, object_side);
                let g = tile_i * WORKER_TILE + slot;
                let deps = &dependents[starts[g] as usize..starts[g + 1] as usize];
                for &(triple_idx, target) in deps {
                    results.push((triple_idx, rank_with_exclusions(row, target, exclude)));
                }
            }
        }
    });
    results
}

/// The unique-workload fast path: every triple is its own group, so rank
/// rows are computed straight from the triple list and written into the
/// caller's (disjoint) output chunk — no group structures, no result
/// buffering. Bit-identical to the grouped path: same kernel rows, same
/// exclusion lists, same `rank_with_exclusions` reduction.
fn rank_rows_direct(
    model: &dyn KgeModel,
    triples: &[Triple],
    known: Option<&KnownTriples>,
    object_side: bool,
    out: &mut [f64],
) {
    debug_assert_eq!(triples.len(), out.len());
    let n = model.num_entities();
    with_scratch(WORKER_TILE.min(triples.len().max(1)) * n, |scores| {
        let mut tile_keys = [(0u32, 0u32); WORKER_TILE];
        for (tile, out_tile) in triples.chunks(WORKER_TILE).zip(out.chunks_mut(WORKER_TILE)) {
            for (slot, t) in tile.iter().enumerate() {
                tile_keys[slot] = side_key(t, object_side).0;
            }
            let rows = &mut scores[..tile.len() * n];
            score_tile(model, &tile_keys[..tile.len()], object_side, rows);
            for (slot, t) in tile.iter().enumerate() {
                let row = &rows[slot * n..(slot + 1) * n];
                let (key, target) = side_key(t, object_side);
                let exclude = exclusions(known, key, object_side);
                out_tile[slot] = rank_with_exclusions(row, target, exclude);
            }
        }
    });
}

/// Batched, query-deduplicated ranking over a triple slice. See the module
/// docs for the work-sharing model and determinism contract.
pub struct BatchRanker<'a> {
    model: &'a dyn KgeModel,
    threads: usize,
}

impl<'a> BatchRanker<'a> {
    /// A ranker over `model` using up to `threads` workers (clamped to ≥ 1).
    pub fn new(model: &'a dyn KgeModel, threads: usize) -> Self {
        BatchRanker {
            model,
            threads: threads.max(1),
        }
    }

    /// Both-side ranks for every triple, in input order — equal to running
    /// [`crate::rank_triple`] per triple, at a fraction of the entity
    /// sweeps when side queries repeat.
    pub fn rank_all(&self, triples: &[Triple], known: Option<&KnownTriples>) -> Vec<TripleRanks> {
        self.rank_all_with_stats(triples, known).0
    }

    /// [`rank_all`](BatchRanker::rank_all) plus the dedup accounting of the
    /// pass. Also publishes the stats to the `kgfd-obs` registry.
    pub fn rank_all_with_stats(
        &self,
        triples: &[Triple],
        known: Option<&KnownTriples>,
    ) -> (Vec<TripleRanks>, BatchRankStats) {
        let (object_groups, object_distinct) = group_queries(triples, true);
        let (subject_groups, subject_distinct) = group_queries(triples, false);
        let stats = BatchRankStats {
            total_queries: 2 * triples.len() as u64,
            distinct_queries: (object_distinct + subject_distinct) as u64,
        };

        let mut object_ranks = vec![0.0f64; triples.len()];
        let mut subject_ranks = vec![0.0f64; triples.len()];
        self.rank_side(&object_groups, triples, known, true, &mut object_ranks);
        self.rank_side(&subject_groups, triples, known, false, &mut subject_ranks);

        if !triples.is_empty() {
            kgfd_obs::counter("eval.rank.total_queries").add(stats.total_queries);
            kgfd_obs::counter("eval.rank.distinct_queries").add(stats.distinct_queries);
            kgfd_obs::gauge("eval.rank.dedup_ratio").set(stats.dedup_ratio());
        }

        let ranks = subject_ranks
            .into_iter()
            .zip(object_ranks)
            .map(|(subject, object)| TripleRanks { subject, object })
            .collect();
        (ranks, stats)
    }

    /// Ranks one corruption side. Grouped inputs split their query groups
    /// across pool jobs in contiguous chunks (every dependent
    /// `(triple, side)` slot is written exactly once, so the merge is
    /// order-insensitive); unique inputs bypass grouping and write disjoint
    /// output chunks directly. Jobs run under the caller's current span
    /// (e.g. `discover.evaluation`), so their kernel-tile spans stay in the
    /// tree. Output is identical at any thread count.
    fn rank_side(
        &self,
        groups: &SideGroups,
        triples: &[Triple],
        known: Option<&KnownTriples>,
        object_side: bool,
        out: &mut [f64],
    ) {
        let model = self.model;
        match groups {
            SideGroups::Unique => {
                kgfd_pool::fan_out_mut(self.threads, out, |start, out_part| {
                    let part = &triples[start..start + out_part.len()];
                    rank_rows_direct(model, part, known, object_side, out_part);
                })
                .unwrap_or_else(|e| panic!("{e}"));
            }
            SideGroups::Grouped(g) => {
                let parts = kgfd_pool::fan_out(self.threads, &g.keys, |a, keys| {
                    let starts = &g.starts[a..=a + keys.len()];
                    rank_groups(model, keys, starts, &g.dependents, known, object_side)
                })
                .unwrap_or_else(|e| panic!("{e}"));
                for (triple_idx, rank) in parts.into_iter().flatten() {
                    out[triple_idx as usize] = rank;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_embed::{new_model, ModelKind};

    fn dup_heavy_triples() -> Vec<Triple> {
        // A mesh-grid-shaped workload: 4 subjects × 4 objects over 2
        // relations → 32 triples, 8 distinct queries per side.
        let mut triples = Vec::new();
        for r in 0..2u32 {
            for s in 0..4u32 {
                for o in 4..8u32 {
                    triples.push(Triple::new(s, r, o));
                }
            }
        }
        triples
    }

    /// Eval-shaped: no `(s, r)` or `(r, o)` query repeats, so both sides
    /// take the unique bypass.
    fn unique_triples() -> Vec<Triple> {
        (0..8u32).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect()
    }

    #[test]
    fn grouping_counts_distinct_side_queries() {
        let triples = dup_heavy_triples();
        let m = new_model(ModelKind::DistMult, 10, 2, 8, 3);
        let (_, stats) = BatchRanker::new(m.as_ref(), 1).rank_all_with_stats(&triples, None);
        assert_eq!(stats.total_queries, 64);
        assert_eq!(stats.distinct_queries, 16);
        assert!((stats.dedup_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unique_workload_takes_the_bypass_and_counts_stats() {
        let triples = unique_triples();
        let (groups, distinct) = group_queries(&triples, true);
        assert!(matches!(groups, SideGroups::Unique));
        assert_eq!(distinct, triples.len());
        let m = new_model(ModelKind::DistMult, 10, 2, 8, 3);
        let (_, stats) = BatchRanker::new(m.as_ref(), 1).rank_all_with_stats(&triples, None);
        assert_eq!(stats.dedup_ratio(), 1.0);
    }

    #[test]
    fn matches_scalar_ranks_exactly() {
        let m = new_model(ModelKind::ComplEx, 10, 2, 8, 3);
        for triples in [dup_heavy_triples(), unique_triples()] {
            let batched = BatchRanker::new(m.as_ref(), 1).rank_all(&triples, None);
            let known = KnownTriples::from_slices([&triples[..]]);
            let batched_filtered = BatchRanker::new(m.as_ref(), 1).rank_all(&triples, Some(&known));
            let mut scratch = crate::RankScratch::new(10);
            for (i, &t) in triples.iter().enumerate() {
                let raw = crate::rank_triple(m.as_ref(), t, None, &mut scratch);
                let filt = crate::rank_triple(m.as_ref(), t, Some(&known), &mut scratch);
                assert_eq!(batched[i], raw);
                assert_eq!(batched_filtered[i], filt);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_ranks() {
        let m = new_model(ModelKind::TransE, 10, 2, 8, 3);
        for triples in [dup_heavy_triples(), unique_triples()] {
            let one = BatchRanker::new(m.as_ref(), 1).rank_all(&triples, None);
            let four = BatchRanker::new(m.as_ref(), 4).rank_all(&triples, None);
            assert_eq!(one, four);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let m = new_model(ModelKind::DistMult, 4, 1, 4, 0);
        let (ranks, stats) = BatchRanker::new(m.as_ref(), 4).rank_all_with_stats(&[], None);
        assert!(ranks.is_empty());
        assert_eq!(stats.distinct_queries, 0);
        assert_eq!(stats.dedup_ratio(), 1.0);
    }

    #[test]
    fn csr_grouping_partitions_every_triple_once() {
        let triples = dup_heavy_triples();
        let (groups, distinct) = group_queries(&triples, false);
        let SideGroups::Grouped(g) = groups else {
            panic!("dup-heavy workload must group");
        };
        assert_eq!(g.keys.len(), distinct);
        assert_eq!(*g.starts.last().unwrap() as usize, triples.len());
        let mut seen = vec![false; triples.len()];
        for gi in 0..g.keys.len() {
            for &(idx, target) in &g.dependents[g.starts[gi] as usize..g.starts[gi + 1] as usize] {
                assert!(!seen[idx as usize], "triple {idx} in two groups");
                seen[idx as usize] = true;
                let (key, expect_target) = side_key(&triples[idx as usize], false);
                assert_eq!(key, g.keys[gi]);
                assert_eq!(target, expect_target);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
