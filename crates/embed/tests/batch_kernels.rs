//! Differential properties of the batched scoring kernels: for *every*
//! model kind, `score_objects_batch` / `score_subjects_batch` must be
//! **bitwise** equal to looping the single-query kernels — the contract the
//! batched ranking engine (`kgfd_eval::BatchRanker`) relies on to keep ranks
//! identical to the scalar path. Query lists deliberately include
//! duplicates and ragged lengths (not multiples of the tile width).

use kgfd_embed::{new_model, ModelKind};
use kgfd_kg::{EntityId, RelationId};
use proptest::prelude::*;

const N: usize = 9;
const K: usize = 4;
const DIM: usize = 12; // even (ComplEx) and 3×4-reshapeable (ConvE)

fn arb_kind() -> impl Strategy<Value = ModelKind> {
    proptest::sample::select(ModelKind::ALL.to_vec())
}

/// 0–40 queries: crosses the tile boundary (tile width 8) several times and
/// exercises the empty and ragged-tail cases.
fn arb_queries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..N as u32, 0..K as u32), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn object_batch_is_bitwise_equal_to_looped_kernel(
        kind in arb_kind(), seed in 0u64..300, queries in arb_queries()
    ) {
        let model = new_model(kind, N, K, DIM, seed);
        let qs: Vec<(EntityId, RelationId)> = queries
            .iter()
            .map(|&(s, r)| (EntityId(s), RelationId(r)))
            .collect();

        let mut batched = vec![0.0f32; qs.len() * N];
        model.score_objects_batch(&qs, &mut batched);

        let mut looped = vec![0.0f32; qs.len() * N];
        for (q, chunk) in qs.iter().zip(looped.chunks_mut(N)) {
            model.score_objects(q.0, q.1, chunk);
        }

        for (i, (a, b)) in batched.iter().zip(&looped).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "{}: object slot {} diverged: batched {} vs looped {}",
                kind, i, a, b
            );
        }
    }

    #[test]
    fn subject_batch_is_bitwise_equal_to_looped_kernel(
        kind in arb_kind(), seed in 0u64..300, queries in arb_queries()
    ) {
        let model = new_model(kind, N, K, DIM, seed);
        let qs: Vec<(RelationId, EntityId)> = queries
            .iter()
            .map(|&(o, r)| (RelationId(r), EntityId(o)))
            .collect();

        let mut batched = vec![0.0f32; qs.len() * N];
        model.score_subjects_batch(&qs, &mut batched);

        let mut looped = vec![0.0f32; qs.len() * N];
        for (q, chunk) in qs.iter().zip(looped.chunks_mut(N)) {
            model.score_subjects(q.0, q.1, chunk);
        }

        for (i, (a, b)) in batched.iter().zip(&looped).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "{}: subject slot {} diverged: batched {} vs looped {}",
                kind, i, a, b
            );
        }
    }

    #[test]
    fn duplicate_queries_fill_identical_rows(
        kind in arb_kind(), seed in 0u64..300,
        s in 0..N as u32, r in 0..K as u32, copies in 2usize..6
    ) {
        // A batch of the same query repeated must produce byte-identical
        // rows — the property that makes query deduplication sound.
        let model = new_model(kind, N, K, DIM, seed);
        let qs = vec![(EntityId(s), RelationId(r)); copies];
        let mut out = vec![0.0f32; copies * N];
        model.score_objects_batch(&qs, &mut out);
        let first: Vec<u32> = out[..N].iter().map(|v| v.to_bits()).collect();
        for row in out.chunks(N).skip(1) {
            let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&bits, &first, "{}: duplicated query rows diverged", kind);
        }
    }
}
