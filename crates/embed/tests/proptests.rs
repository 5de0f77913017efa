//! Property-based tests of the embedding substrate: for *every* model kind,
//! the batched kernels must agree with pointwise scoring, backward must
//! touch the right rows, and persistence must round-trip — under arbitrary
//! seeds and shapes.

use kgfd_embed::{
    load_model, negative_stream, new_model, save_model, CorruptSide, Gradients, ModelKind,
    NegativeSampler, ENTITY_TABLE,
};
use kgfd_kg::{EntityId, RelationId, Triple, TripleStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const N: usize = 7;
const K: usize = 3;
const DIM: usize = 12; // even (ComplEx) and 3×4-reshapeable (ConvE)

fn arb_kind() -> impl Strategy<Value = ModelKind> {
    proptest::sample::select(ModelKind::ALL.to_vec())
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (0..N as u32, 0..K as u32, 0..N as u32).prop_map(|(s, r, o)| Triple::new(s, r, o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scores_are_finite(kind in arb_kind(), seed in 0u64..500, t in arb_triple()) {
        let model = new_model(kind, N, K, DIM, seed);
        prop_assert!(model.score(t).is_finite());
    }

    #[test]
    fn batched_object_kernel_matches_score(kind in arb_kind(), seed in 0u64..200,
                                           s in 0..N as u32, r in 0..K as u32) {
        let model = new_model(kind, N, K, DIM, seed);
        let mut out = vec![0.0f32; N];
        model.score_objects(EntityId(s), RelationId(r), &mut out);
        for (e, &batched) in out.iter().enumerate() {
            let direct = model.score(Triple::new(s, r, e as u32));
            prop_assert!((batched - direct).abs() < 1e-4,
                "{kind}: object kernel {batched} vs score {direct}");
        }
    }

    #[test]
    fn batched_subject_kernel_is_consistent(kind in arb_kind(), seed in 0u64..200,
                                            r in 0..K as u32, o in 0..N as u32) {
        // For ConvE the subject kernel intentionally uses the reciprocal
        // path, so it is checked against itself across calls (determinism)
        // and against score() for the other kinds.
        let model = new_model(kind, N, K, DIM, seed);
        let mut a = vec![0.0f32; N];
        let mut b = vec![0.0f32; N];
        model.score_subjects(RelationId(r), EntityId(o), &mut a);
        model.score_subjects(RelationId(r), EntityId(o), &mut b);
        prop_assert_eq!(&a, &b);
        if kind != ModelKind::ConvE {
            for (e, &batched) in a.iter().enumerate() {
                let direct = model.score(Triple::new(e as u32, r, o));
                prop_assert!((batched - direct).abs() < 1e-4,
                    "{kind}: subject kernel {batched} vs score {direct}");
            }
        }
    }

    #[test]
    fn backward_touches_the_triples_rows(kind in arb_kind(), seed in 0u64..200, t in arb_triple()) {
        let model = new_model(kind, N, K, DIM, seed);
        let mut grads = Gradients::new();
        model.backward(t, 1.0, &mut grads);
        prop_assert!(grads.get(ENTITY_TABLE, t.subject.index()).is_some());
        prop_assert!(grads.get(ENTITY_TABLE, t.object.index()).is_some());
        // No entity row outside {s, o} may be touched.
        for (table, row, _) in grads.iter() {
            if table == ENTITY_TABLE {
                prop_assert!(row == t.subject.index() || row == t.object.index());
            }
        }
    }

    #[test]
    fn backward_scales_linearly_in_upstream(kind in arb_kind(), seed in 0u64..100, t in arb_triple()) {
        let model = new_model(kind, N, K, DIM, seed);
        let mut g1 = Gradients::new();
        let mut g2 = Gradients::new();
        model.backward(t, 1.0, &mut g1);
        model.backward(t, 2.5, &mut g2);
        for (table, row, grad) in g1.iter() {
            let scaled = g2.get(table, row).expect("same rows touched");
            for (a, b) in grad.iter().zip(scaled) {
                prop_assert!((a * 2.5 - b).abs() < 1e-4 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn persistence_roundtrips_every_kind(kind in arb_kind(), seed in 0u64..200, t in arb_triple()) {
        let model = new_model(kind, N, K, DIM, seed);
        let loaded = load_model(&save_model(model.as_ref())).unwrap();
        prop_assert_eq!(loaded.kind(), kind);
        prop_assert_eq!(loaded.num_entities(), N);
        let a = model.score(t);
        let b = loaded.score(t);
        prop_assert!((a - b).abs() < 1e-7);
    }

    /// Persistence must be lossless to the bit, for every model kind and —
    /// the regression behind the v2 format — both TransE distances saved
    /// through the *generic* `save_model` path. (The retired v1
    /// `save_transe` shim hand-patched the distance flag; L2 models saved
    /// generically came back as L1.)
    #[test]
    fn roundtrip_scores_are_bit_identical_for_every_config(
        kind in arb_kind(),
        l2 in 0u8..2,
        seed in 0u64..200,
        t in arb_triple(),
    ) {
        use kgfd_embed::models::{Distance, TransE};
        let model: Box<dyn kgfd_embed::KgeModel> = if kind == ModelKind::TransE {
            let d = if l2 == 1 { Distance::L2 } else { Distance::L1 };
            Box::new(TransE::new(N, K, DIM, d, seed))
        } else {
            new_model(kind, N, K, DIM, seed)
        };
        let loaded = load_model(&save_model(model.as_ref())).unwrap();
        prop_assert_eq!(loaded.config(), model.config(), "config must survive");
        prop_assert_eq!(loaded.params(), model.params(), "parameters must survive");
        prop_assert_eq!(
            loaded.score(t).to_bits(),
            model.score(t).to_bits(),
            "score of {:?} drifted across save/load", t
        );
    }

    #[test]
    fn same_seed_same_model(kind in arb_kind(), seed in 0u64..200) {
        let a = new_model(kind, N, K, DIM, seed);
        let b = new_model(kind, N, K, DIM, seed);
        prop_assert_eq!(a.params(), b.params());
    }
}

// Properties of the negative sampler and the parallel trainer's RNG streams.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With a generous retry budget, filtered sampling never returns a
    /// known-true triple in practice. The triple count is capped at `N - 2`
    /// so every corruption side always has at least two free entities; the
    /// residual failure probability is ((N-2)/N)^1000 ≈ 10^-146.
    #[test]
    fn filtered_negatives_never_collide_with_known_triples(
        triples in proptest::collection::vec(arb_triple(), 1..N - 1),
        seed in 0u64..500,
        side_pick in 0u8..3,
    ) {
        let store = TripleStore::new(N, K, triples.clone()).unwrap();
        let sampler = NegativeSampler::with_max_retries(N, 1000);
        let side = match side_pick {
            0 => CorruptSide::Subject,
            1 => CorruptSide::Object,
            _ => CorruptSide::Both,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for &t in &triples {
            let neg = sampler.corrupt(t, side, Some(&store), &mut rng);
            prop_assert!(!store.contains(&neg),
                "filtered corruption of {t:?} returned known-true {neg:?}");
        }
    }

    /// Corruption replaces exactly the requested side: the relation always
    /// survives, and the un-corrupted entity side is untouched.
    #[test]
    fn corruption_respects_the_side_choice(
        t in arb_triple(),
        seed in 0u64..500,
    ) {
        let sampler = NegativeSampler::new(N);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sampler.corrupt(t, CorruptSide::Subject, None, &mut rng);
        prop_assert_eq!(s.relation, t.relation);
        prop_assert_eq!(s.object, t.object);
        let o = sampler.corrupt(t, CorruptSide::Object, None, &mut rng);
        prop_assert_eq!(o.relation, t.relation);
        prop_assert_eq!(o.subject, t.subject);
        let b = sampler.corrupt(t, CorruptSide::Both, None, &mut rng);
        prop_assert_eq!(b.relation, t.relation);
        prop_assert!(b.subject == t.subject || b.object == t.object,
            "Both mode must keep one side intact");
    }

    /// Distinct shard coordinates yield pairwise non-overlapping stream
    /// prefixes: no u64 drawn by one stream appears in the other's first
    /// draws. (Two independent 64-bit streams of length 16 collide with
    /// probability ≈ 2^-56 — a hit here means broken stream derivation.)
    #[test]
    fn shard_streams_have_non_overlapping_prefixes(
        seed in 0u64..200,
        epoch in 0u64..8,
        a in 0u64..64,
        delta in 1u64..64,
    ) {
        let b = a + delta; // always a distinct shard index
        let draw = |shard: u64| -> Vec<u64> {
            let mut rng = negative_stream(seed, epoch, shard);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        let xs = draw(a);
        let ys = draw(b);
        for (i, x) in xs.iter().enumerate() {
            for (j, y) in ys.iter().enumerate() {
                prop_assert!(x != y,
                    "streams {a} and {b} share value {x:#x} at prefix positions {i}/{j}");
            }
        }
        // And the same coordinates reproduce the same prefix.
        prop_assert_eq!(draw(a), xs);
    }
}

// ---------------------------------------------------------------------------
// The gradient slab against the map it replaced
// ---------------------------------------------------------------------------

/// Row width of each table: embedding rows, a one-wide bias-like table and
/// a RESCAL-style flattened matrix.
const SLAB_WIDTHS: [usize; 3] = [4, 1, 9];

/// One accumulator operation. `kind` picks the operation and the target
/// (the batch accumulator or a shard buffer); `values` are turned into a
/// gradient row, with `−0.0` standing in for small values so the sign of
/// zero is exercised.
type SlabOp = (u8, usize, usize, Vec<f32>, f32);

fn arb_slab_ops() -> impl Strategy<Value = Vec<SlabOp>> {
    proptest::collection::vec(
        (
            0u8..7,
            0..SLAB_WIDTHS.len(),
            0usize..6,
            proptest::collection::vec(-4.0f32..4.0, 9..10),
            -2.0f32..2.0,
        ),
        0..80,
    )
}

/// The accumulator `Gradients` was before the slab: one heap row per key,
/// a fresh row starting from zeros.
type MapGrads = HashMap<(usize, usize), Vec<f32>>;

fn gradient_row(values: &[f32], width: usize) -> Vec<f32> {
    values[..width]
        .iter()
        .map(|&v| if v.abs() < 0.5 { -0.0 } else { v })
        .collect()
}

fn map_slot(map: &mut MapGrads, table: usize, row: usize, width: usize) -> &mut Vec<f32> {
    map.entry((table, row)).or_insert_with(|| vec![0.0; width])
}

fn map_add(map: &mut MapGrads, table: usize, row: usize, grad: &[f32], alpha: f32) {
    let slot = map_slot(map, table, row, grad.len());
    for (o, v) in slot.iter_mut().zip(grad) {
        *o += alpha * v;
    }
}

/// An in-place write through `slot`, the way RESCAL and ConvE backward
/// passes fill a row without a temporary. Unlike `add`, it can leave
/// `−0.0` in a row (`−0.0 − 0.0 = −0.0`), so a merge that copied a fresh
/// row instead of adding it to zeros would show.
fn write_in_place(slot: &mut [f32], grad: &[f32], alpha: f32) {
    for (o, v) in slot.iter_mut().zip(grad) {
        *o = alpha * v - *o;
    }
}

/// A slab and its map reference, fed the same operations.
#[derive(Default)]
struct Twin {
    slab: Gradients,
    map: MapGrads,
}

impl Twin {
    fn clear(&mut self) {
        self.slab.clear();
        self.map.clear();
    }
}

/// Applies `ops` to a batch accumulator and a shard buffer. Kinds 0–3 add
/// or write in place into the batch (even) or the shard (odd); 4 merges
/// the shard into the batch; 5 clears the shard and 6 the batch.
fn apply_slab_ops(ops: &[SlabOp], batch: &mut Twin, shard: &mut Twin) {
    for &(kind, table, row, ref values, alpha) in ops {
        let grad = gradient_row(values, SLAB_WIDTHS[table]);
        match kind {
            0..=3 => {
                let twin = if kind % 2 == 0 {
                    &mut *batch
                } else {
                    &mut *shard
                };
                if kind < 2 {
                    twin.slab.add(table, row, &grad, alpha);
                    map_add(&mut twin.map, table, row, &grad, alpha);
                } else {
                    write_in_place(twin.slab.slot(table, row, grad.len()), &grad, alpha);
                    let map_row = map_slot(&mut twin.map, table, row, grad.len());
                    write_in_place(map_row, &grad, alpha);
                }
            }
            4 => {
                batch.slab.merge_from(&shard.slab);
                for (&(t, r), g) in &shard.map {
                    map_add(&mut batch.map, t, r, g, 1.0);
                }
            }
            5 => shard.clear(),
            _ => batch.clear(),
        }
    }
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// The slab holds exactly the map's rows, bit for bit, and `iter` yields
/// each of them once.
fn check_twin(twin: &Twin) -> Result<(), TestCaseError> {
    let (slab, map) = (&twin.slab, &twin.map);
    prop_assert_eq!(slab.len(), map.len());
    prop_assert_eq!(slab.is_empty(), map.is_empty());
    let mut seen = std::collections::HashSet::new();
    for (table, row, grad) in slab.iter() {
        prop_assert!(seen.insert((table, row)), "({table}, {row}) yielded twice");
        let expected = map.get(&(table, row)).map(|g| bits(g));
        prop_assert_eq!(Some(bits(grad)), expected);
        prop_assert_eq!(slab.get(table, row).map(bits), Some(bits(grad)));
    }
    Ok(())
}

fn slab_rows(slab: &Gradients) -> Vec<(usize, usize, Vec<u32>)> {
    slab.iter().map(|(t, r, g)| (t, r, bits(g))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `add` / `slot` / `merge_from` / `clear` sequences over rows
    /// of mixed widths leave the slab bit-equal to the hash-map
    /// accumulator it replaced, and a cleared, reused slab behaves exactly
    /// like a fresh one (same rows, same bits, same first-touch order).
    #[test]
    fn gradient_slab_matches_the_map_accumulator(
        first in arb_slab_ops(),
        second in arb_slab_ops(),
    ) {
        let (mut batch, mut shard) = (Twin::default(), Twin::default());
        apply_slab_ops(&first, &mut batch, &mut shard);
        check_twin(&batch)?;
        check_twin(&shard)?;

        batch.clear();
        shard.clear();
        prop_assert!(batch.slab.iter().next().is_none() && batch.slab.get(0, 0).is_none());
        let (mut fresh_batch, mut fresh_shard) = (Twin::default(), Twin::default());
        apply_slab_ops(&second, &mut batch, &mut shard);
        apply_slab_ops(&second, &mut fresh_batch, &mut fresh_shard);
        check_twin(&batch)?;
        check_twin(&shard)?;
        prop_assert_eq!(slab_rows(&batch.slab), slab_rows(&fresh_batch.slab));
        prop_assert_eq!(slab_rows(&shard.slab), slab_rows(&fresh_shard.slab));
    }
}
