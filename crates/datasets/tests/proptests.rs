//! Property-based tests of the dataset substrate.

use kgfd_datasets::{fit_profile, generate, DatasetProfile, Zipf};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = DatasetProfile> {
    (
        20usize..80,  // entities
        1usize..6,    // relations
        50usize..400, // train triples
        0.0f64..1.4,  // entity skew
        0.0f64..1.0,  // relation skew
        1usize..10,   // communities
        0.0f64..1.0,  // intra community
        0.05f64..1.0, // relation spread
        0u64..1000,   // seed
    )
        .prop_map(
            |(entities, relations, train, es, rs, communities, intra, spread, seed)| {
                DatasetProfile {
                    name: "prop".into(),
                    entities,
                    relations,
                    train_triples: train,
                    valid_triples: train / 20 + 1,
                    test_triples: train / 20 + 1,
                    entity_skew: es,
                    relation_skew: rs,
                    communities,
                    intra_community: intra,
                    relation_spread: spread,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_datasets_satisfy_split_invariants(profile in arb_profile()) {
        // Dataset::new re-checks disjointness and coverage; generate() must
        // never produce a violating split for any profile.
        let data = generate(&profile).unwrap();
        prop_assert_eq!(data.train.num_entities(), profile.entities);
        prop_assert_eq!(data.train.num_relations(), profile.relations);
        for t in data.valid.iter().chain(&data.test) {
            prop_assert!(!data.train.contains(t));
        }
        prop_assert!(data.train.triples().iter().all(|t| !t.is_loop()));
    }

    #[test]
    fn generation_is_deterministic_for_any_profile(profile in arb_profile()) {
        let a = generate(&profile).unwrap();
        let b = generate(&profile).unwrap();
        prop_assert_eq!(a.train.triples(), b.train.triples());
        prop_assert_eq!(a.valid, b.valid);
    }

    #[test]
    fn zipf_pmf_is_a_distribution(n in 1usize..300, s in 0.0f64..2.5) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        // Monotone non-increasing in rank.
        for i in 1..n {
            prop_assert!(z.pmf(i - 1) >= z.pmf(i) - 1e-12);
        }
    }

    #[test]
    fn fitted_profiles_are_valid_generator_inputs(profile in arb_profile()) {
        let data = generate(&profile).unwrap();
        if data.train.is_empty() {
            return Ok(());
        }
        let fitted = fit_profile("refit", &data.train, 1);
        prop_assert!(fitted.entity_skew.is_finite());
        prop_assert!((0.0..=1.5).contains(&fitted.entity_skew));
        prop_assert!(fitted.communities >= 1);
        prop_assert!((0.05..=0.9).contains(&fitted.intra_community));
        // The fitted profile must itself generate successfully.
        let regen = generate(&fitted).unwrap();
        prop_assert_eq!(regen.train.num_entities(), data.train.num_entities());
    }
}
