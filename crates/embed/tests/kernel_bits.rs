//! Pins the exact bits of the batched scoring kernels.
//!
//! `tests/batch_kernels.rs` proves that batched scores equal looped
//! single-query scores, but a change that moved both paths the same way
//! (a fused multiply-add in the shared dot product, say) would still pass
//! it, and on a CPU with AVX2 the public API never runs the portable
//! codegen of the sweep. This test closes both gaps from the outside: it
//! scores a ragged batch of queries (one full tile of 8 and 3 more) on
//! both sides against a seeded entity table whose 23 rows are not a
//! multiple of the 4-row block, for every model kind and for TransE's L2
//! distance too, and compares a 64-bit FNV-1a digest of every score's
//! `f32` bits with constants recorded at commit `361037e`, before the
//! sweep folded several entity rows per pass or had an AVX2 codegen. The
//! digests are the same on every CPU, whichever codegen it runs.

use kgfd_embed::models::{Distance, TransE};
use kgfd_embed::{new_model, KgeModel, ModelKind};
use kgfd_kg::{EntityId, RelationId};

const ENTITIES: usize = 23;
const RELATIONS: usize = 3;
const DIM: usize = 12; // even (ComplEx) and 3×4-reshapeable (ConvE)
const QUERIES: u32 = 11;
const SEED: u64 = 5;

/// `(case, digest)` for every model, in `ModelKind::ALL` order; the case is
/// the kind's name, or `transe-l2` for TransE with its L2 distance.
const RECORDED: [(&str, u64); 7] = [
    ("complex", 0x17df_fece_d40e_afa3),
    ("conve", 0x20ef_3895_70f0_c7c3),
    ("distmult", 0x8e5a_c14d_98f4_7559),
    ("rescal", 0x54f6_39ff_4cf5_ca92),
    ("transe", 0xd3db_c568_19d9_10cf),
    ("hole", 0x2956_3875_5e88_66db),
    ("transe-l2", 0x2185_30ed_5126_74f7),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The seeded models, named as in [`RECORDED`].
fn models() -> Vec<(String, Box<dyn KgeModel>)> {
    let mut models: Vec<(String, Box<dyn KgeModel>)> = ModelKind::ALL
        .iter()
        .map(|&kind| {
            let model = new_model(kind, ENTITIES, RELATIONS, DIM, SEED);
            (kind.to_string(), model)
        })
        .collect();
    let l2 = TransE::new(ENTITIES, RELATIONS, DIM, Distance::L2, SEED);
    models.push(("transe-l2".to_string(), Box::new(l2)));
    models
}

/// Digests the object-side batch, then the subject-side batch, of
/// [`QUERIES`] queries. The output buffers start at zero, so a score the
/// kernel fails to write shows in the digest too.
fn kernel_digest(model: &dyn KgeModel) -> u64 {
    let objects: Vec<(EntityId, RelationId)> = (0..QUERIES)
        .map(|i| {
            (
                EntityId(i * 7 % ENTITIES as u32),
                RelationId(i % RELATIONS as u32),
            )
        })
        .collect();
    let subjects: Vec<(RelationId, EntityId)> = (0..QUERIES)
        .map(|i| {
            (
                RelationId(i % RELATIONS as u32),
                EntityId(i * 5 % ENTITIES as u32),
            )
        })
        .collect();
    let mut object_scores = vec![0.0f32; QUERIES as usize * ENTITIES];
    let mut subject_scores = vec![0.0f32; QUERIES as usize * ENTITIES];
    model.score_objects_batch(&objects, &mut object_scores);
    model.score_subjects_batch(&subjects, &mut subject_scores);
    object_scores
        .iter()
        .chain(&subject_scores)
        .fold(FNV_OFFSET, |hash, x| {
            fnv1a(hash, &x.to_bits().to_le_bytes())
        })
}

#[test]
fn batched_scores_match_their_recorded_bits() {
    let mut mismatches = Vec::new();
    for ((case, model), (recorded_case, recorded)) in models().iter().zip(RECORDED) {
        assert_eq!(case, recorded_case);
        let digest = kernel_digest(model.as_ref());
        if digest != recorded {
            mismatches.push(format!("{case}: {digest:#018x}, recorded {recorded:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "batched score bits drifted:\n{}",
        mismatches.join("\n")
    );
}
