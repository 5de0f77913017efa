//! Pins the exact bits of trained models.
//!
//! `tests/determinism.rs` proves that the thread count cannot change a
//! trained model, but a change that moves every thread count the same way
//! (a different summation order in a backward pass, in the shard
//! reduction or in Adam) would still pass it. This test closes that gap:
//! it trains each model kind for two epochs on the toy graph, with uniform
//! and with self-adversarial negative weights, at one and at four threads,
//! and compares a 64-bit FNV-1a digest of every parameter table's `f32`
//! bits and every epoch loss's `f64` bits with constants recorded at commit
//! `e20933a`, when gradients still accumulated in a `HashMap` of row
//! vectors. A deliberate change of training arithmetic must update them.

use kgfd_datasets::toy_biomedical;
use kgfd_embed::{train, LossKind, ModelKind, OptimizerKind, TrainConfig};

/// `(kind, adversarial temperature, digest)` for every trained case.
const RECORDED: [(ModelKind, Option<f32>, u64); 12] = [
    (ModelKind::TransE, None, 0xad96_bd2e_6981_0991),
    (ModelKind::DistMult, None, 0x1745_d1be_a4d9_f5b8),
    (ModelKind::ComplEx, None, 0xe3b5_2cc6_965b_ab6d),
    (ModelKind::Rescal, None, 0xd5c9_9573_01d7_e79c),
    (ModelKind::HolE, None, 0x3755_71e0_d94d_da08),
    (ModelKind::ConvE, None, 0xdb44_7a88_a2ca_ac73),
    (ModelKind::TransE, Some(1.0), 0x3674_0b31_420a_527a),
    (ModelKind::DistMult, Some(1.0), 0xa411_10a6_0d0b_7387),
    (ModelKind::ComplEx, Some(1.0), 0xbb19_2fde_c221_7d83),
    (ModelKind::Rescal, Some(1.0), 0x4b6f_7535_6d6e_7d22),
    (ModelKind::HolE, Some(1.0), 0xd24c_1a1a_909e_019d),
    (ModelKind::ConvE, Some(1.0), 0x1025_8ec5_2239_01d8),
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

/// Trains one case the way `kgfd train` configures it (cross-entropy loss,
/// unit-norm TransE entities, filtered negatives) and digests the result.
///
/// A batch of 40 positives is three shards (16 + 16 + 8), so the order in
/// which shard gradients are reduced shows in the bits; with two shards per
/// batch the commutativity of float addition would hide it.
fn trained_digest(kind: ModelKind, adversarial: Option<f32>, threads: usize) -> u64 {
    let data = toy_biomedical();
    let config = TrainConfig {
        dim: 12,
        epochs: 2,
        batch_size: 40,
        negatives: 3,
        loss: LossKind::BinaryCrossEntropy,
        optimizer: OptimizerKind::Adam { lr: 0.01 },
        filter_negatives: true,
        normalize_entities: kind == ModelKind::TransE,
        adversarial_temperature: adversarial,
        seed: 17,
        threads,
    };
    let (model, stats) = train(kind, &data.train, &config);
    let mut hash = FNV_OFFSET;
    for table in model.params().tables() {
        for &x in table.data() {
            hash = fnv1a(hash, &x.to_bits().to_le_bytes());
        }
    }
    for &loss in &stats.epoch_losses {
        hash = fnv1a(hash, &loss.to_bits().to_le_bytes());
    }
    hash
}

#[test]
fn trained_models_match_their_recorded_bits() {
    let mut mismatches = Vec::new();
    for (kind, adversarial, recorded) in RECORDED {
        for threads in [1, 4] {
            let digest = trained_digest(kind, adversarial, threads);
            if digest != recorded {
                mismatches.push(format!(
                    "{kind} adversarial {adversarial:?} threads {threads}: \
                     {digest:#018x}, recorded {recorded:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "trained bits drifted:\n{}",
        mismatches.join("\n")
    );
}
