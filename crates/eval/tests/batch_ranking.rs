//! Differential tests of the batched, query-deduplicated ranking engine:
//! `BatchRanker` (and `rank_all`, which wraps it) must produce ranks
//! **identical** to the sequential scalar oracle (`rank_triple` on each
//! triple in turn), raw and filtered, under heavy query duplication and at
//! any thread count. Also pins the branch-free row count and exclusion
//! correction inside `rank_with_exclusions` against an independent
//! binary-search reference.

use kgfd_embed::{new_model, KgeModel, ModelKind};
use kgfd_eval::{
    rank_all, rank_triple, rank_with_exclusions, BatchRanker, RankScratch, TripleRanks,
};
use kgfd_kg::{EntityId, KnownTriples, Triple};
use proptest::prelude::*;

const N: u32 = 11;
const K: u32 = 3;
const DIM: usize = 12;

/// Triples drawn from tiny pools: with ≤4 distinct subjects/objects per
/// relation, most `(s, r)` / `(r, o)` side queries repeat many times —
/// the discovery-shaped workload the deduplicating engine exists for.
fn arb_dup_heavy_triples() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(
        (0..4u32, 0..K, 0..4u32).prop_map(|(s, r, o)| Triple::new(s, r, o)),
        1..60,
    )
}

fn arb_known() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(
        (0..N, 0..K, 0..N).prop_map(|(s, r, o)| Triple::new(s, r, o)),
        0..40,
    )
}

fn arb_kind() -> impl Strategy<Value = ModelKind> {
    proptest::sample::select(ModelKind::ALL.to_vec())
}

/// The scalar oracle: `rank_triple` over the triples in order, one scratch
/// buffer, no batching, no dedup, no pool.
fn rank_scalar(
    model: &dyn KgeModel,
    triples: &[Triple],
    known: Option<&KnownTriples>,
) -> Vec<TripleRanks> {
    let mut scratch = RankScratch::new(model.num_entities());
    triples
        .iter()
        .map(|&t| rank_triple(model, t, known, &mut scratch))
        .collect()
}

/// The original implementation: per-entity binary search into the sorted
/// exclusion list, skipping excluded entities during the count. Kept
/// verbatim as the differential reference.
fn rank_with_exclusions_binary_search(
    scores: &[f32],
    target: EntityId,
    exclude: &[EntityId],
) -> f64 {
    let target_score = scores[target.index()];
    let mut greater = 0u64;
    let mut ties = 0u64;
    for (e, &score) in scores.iter().enumerate() {
        if e == target.index() || exclude.binary_search(&EntityId(e as u32)).is_ok() {
            continue;
        }
        if score > target_score {
            greater += 1;
        } else if score == target_score {
            ties += 1;
        }
    }
    1.0 + greater as f64 + ties as f64 / 2.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_walk_matches_binary_search_reference(
        // Coarse score grid (and an occasional NaN — one lattice value maps
        // to it) to force plenty of ties and exercise the NaN-never-outranks
        // branch. Rows up to ~100 entries run the vectorized count over
        // several full vector iterations plus a scalar tail.
        raw_scores in proptest::collection::vec(
            (-4i32..5).prop_map(|v| if v == 4 { f32::NAN } else { v as f32 / 2.0 }),
            2..100
        ),
        target_pick in 0usize..1000,
        // Sorted but neither deduplicated nor clipped to the row: repeated
        // entries and ids past `scores.len()` must count as the reference
        // counts them (once, and not at all).
        excl in proptest::collection::vec(0u32..120, 0..24)
    ) {
        let mut target = EntityId((target_pick % raw_scores.len()) as u32);
        let mut scores = raw_scores;
        // The target's own score must be comparable.
        if scores[target.index()].is_nan() {
            scores[target.index()] = 0.0;
        }
        let mut exclude: Vec<EntityId> = excl.into_iter().map(EntityId).collect();
        exclude.sort_unstable();
        // `target` may or may not appear in `exclude` — both paths must
        // agree either way.
        let count = rank_with_exclusions(&scores, target, &exclude);
        let binary = rank_with_exclusions_binary_search(&scores, target, &exclude);
        prop_assert_eq!(count.to_bits(), binary.to_bits(),
            "row count {} vs binary search {}", count, binary);
        // Also check a target that IS excluded (it must still compete).
        if let Some(&x) = exclude.iter().find(|x| x.index() < scores.len()) {
            target = x;
            if scores[target.index()].is_nan() {
                scores[target.index()] = 0.0;
            }
            let count = rank_with_exclusions(&scores, target, &exclude);
            let binary = rank_with_exclusions_binary_search(&scores, target, &exclude);
            prop_assert_eq!(count.to_bits(), binary.to_bits());
        }
    }

    #[test]
    fn batched_ranks_equal_scalar_ranks_raw_and_filtered(
        kind in arb_kind(), seed in 0u64..200,
        triples in arb_dup_heavy_triples(), known_triples in arb_known()
    ) {
        let model = new_model(kind, N as usize, K as usize, DIM, seed);
        let known = KnownTriples::from_slices([known_triples.as_slice()]);

        let scalar_raw = rank_scalar(model.as_ref(), &triples, None);
        let scalar_filt = rank_scalar(model.as_ref(), &triples, Some(&known));
        for threads in [1, 4] {
            let batched_raw = rank_all(model.as_ref(), &triples, None, threads);
            prop_assert_eq!(&scalar_raw, &batched_raw,
                "{}: raw ranks diverged at {} threads", kind, threads);
            let batched_filt = rank_all(model.as_ref(), &triples, Some(&known), threads);
            prop_assert_eq!(&scalar_filt, &batched_filt,
                "{}: filtered ranks diverged at {} threads", kind, threads);
        }
    }

    #[test]
    fn thread_count_never_changes_batched_ranks(
        kind in arb_kind(), seed in 0u64..200, triples in arb_dup_heavy_triples()
    ) {
        let model = new_model(kind, N as usize, K as usize, DIM, seed);
        let known = KnownTriples::from_slices([triples.as_slice()]);
        let one = rank_all(model.as_ref(), &triples, Some(&known), 1);
        let four = rank_all(model.as_ref(), &triples, Some(&known), 4);
        prop_assert_eq!(&one, &four, "{}: thread count changed ranks", kind);
    }
}

/// Deterministic (non-proptest) check against the environment-selected
/// thread count, mirroring the CI matrix: `KGFD_THREADS=1` and `=4` legs
/// must both reproduce the scalar oracle exactly.
#[test]
fn env_thread_count_matches_scalar_oracle() {
    let threads = std::env::var("KGFD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    let model = new_model(ModelKind::ComplEx, N as usize, K as usize, DIM, 7);
    // 8 distinct queries fanned out over 64 triples: dedup ratio 8×.
    let triples: Vec<Triple> = (0..64u32)
        .map(|i| Triple::new(i % 4, i % 2, (i / 8) % 4))
        .collect();
    let known = KnownTriples::from_slices([triples.as_slice()]);

    let (ranks, stats) =
        BatchRanker::new(model.as_ref(), threads).rank_all_with_stats(&triples, Some(&known));
    let oracle = rank_scalar(model.as_ref(), &triples, Some(&known));
    assert_eq!(ranks, oracle);
    assert_eq!(stats.total_queries, 128);
    assert!(stats.distinct_queries < stats.total_queries);
    assert!(stats.dedup_ratio() > 1.0);
}

/// The engine must also agree on eval-shaped workloads where every query is
/// unique (no dedup wins available, dedup ratio 1).
#[test]
fn unique_query_workload_matches_scalar_oracle() {
    let model = new_model(ModelKind::TransE, N as usize, K as usize, DIM, 3);
    let triples: Vec<Triple> = (0..N)
        .flat_map(|s| (0..K).map(move |r| Triple::new(s, r, (s + r + 1) % N)))
        .collect();
    let (ranks, stats) = BatchRanker::new(model.as_ref(), 2).rank_all_with_stats(&triples, None);
    let oracle = rank_scalar(model.as_ref(), &triples, None);
    assert_eq!(ranks, oracle);
    // Object-side queries (s, r) are all distinct by construction.
    assert_eq!(stats.total_queries, 2 * triples.len() as u64);
}
