//! Property-based tests of the fact-discovery invariants.

use fact_discovery::{
    compute_weights, discover_facts, fact_order, normalize_or_uniform, AliasSampler,
    CandidateStream, DiscoveredFact, DiscoveryConfig, Measures, StrategyKind, TopKFacts,
    MAX_ITERATIONS,
};
use kgfd_embed::{new_model, ModelKind};
use kgfd_kg::{Side, Triple, TripleStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u32 = 10;
const K: u32 = 3;

/// The alias sampler's oracle: CDF + binary search (O(n) build, O(log n)
/// draw), the textbook way to sample a weighted index.
struct CdfSampler {
    cdf: Vec<f64>,
    /// Index drawn when `u` lands beyond the final CDF value
    /// (floating-point summation slack): the last index with positive
    /// weight, so rounding can never surface a zero-weight item.
    overflow: usize,
}

impl CdfSampler {
    /// Builds the cumulative distribution from non-negative weights. A
    /// degenerate vector (all-zero or non-finite sum) falls back to the
    /// uniform distribution, as `AliasSampler::new` does.
    fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "cannot sample from an empty pool");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        if total > 0.0 && total.is_finite() {
            let mut acc = 0.0;
            for &w in weights {
                acc += w;
                cdf.push(acc / total);
            }
            let overflow = weights
                .iter()
                .rposition(|&w| w > 0.0)
                .expect("positive total implies a positive weight");
            CdfSampler { cdf, overflow }
        } else {
            for i in 0..n {
                cdf.push((i + 1) as f64 / n as f64);
            }
            CdfSampler {
                cdf,
                overflow: n - 1,
            }
        }
    }

    /// Draws one index in O(log n).
    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        let i = self.cdf.partition_point(|&c| c <= u);
        if i < self.cdf.len() {
            i
        } else {
            self.overflow
        }
    }
}

#[test]
fn cdf_matches_target_distribution() {
    let weights = [0.1, 0.2, 0.7];
    let sampler = CdfSampler::new(&weights);
    let mut rng = StdRng::seed_from_u64(3);
    let mut counts = [0usize; 3];
    for _ in 0..50_000 {
        counts[sampler.sample(&mut rng)] += 1;
    }
    for (c, w) in counts.iter().zip(&weights) {
        let f = *c as f64 / 50_000.0;
        assert!((f - w).abs() < 0.01);
    }
}

#[test]
fn cdf_zero_total_falls_back_to_uniform() {
    // Regression: the zero-total CDF used to stay all-zeros, so every
    // draw returned the last index.
    let sampler = CdfSampler::new(&[0.0, 0.0, 0.0]);
    let mut rng = StdRng::seed_from_u64(4);
    let mut counts = [0usize; 3];
    for _ in 0..30_000 {
        counts[sampler.sample(&mut rng)] += 1;
    }
    for &c in &counts {
        let f = c as f64 / 30_000.0;
        assert!((f - 1.0 / 3.0).abs() < 0.02, "freq {f} not ~uniform");
    }
}

#[test]
fn cdf_zero_weight_items_are_never_drawn() {
    let sampler = CdfSampler::new(&[0.0, 1.0, 0.0, 2.0]);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20_000 {
        let i = sampler.sample(&mut rng);
        assert!(i == 1 || i == 3, "drew zero-weight index {i}");
    }
}

fn arb_store() -> impl Strategy<Value = TripleStore> {
    proptest::collection::vec((0..N, 0..K, 0..N), 1..60).prop_map(|raw| {
        let triples = raw
            .into_iter()
            .map(|(s, r, o)| Triple::new(s, r, o))
            .collect();
        TripleStore::new(N as usize, K as usize, triples).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weights_are_a_distribution_for_every_strategy(store in arb_store()) {
        for kind in StrategyKind::ALL {
            let m = Measures::compute(kind, &store);
            for r in store.used_relations() {
                for side in Side::BOTH {
                    let w = compute_weights(kind, &m, store.side_index(r, side));
                    prop_assert!(!w.is_empty());
                    let sum: f64 = w.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-9, "{kind}: {sum}");
                    prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
                }
            }
        }
    }

    #[test]
    fn normalize_or_uniform_always_yields_distribution(
        weights in proptest::collection::vec(0.0f64..10.0, 1..40)
    ) {
        let w = normalize_or_uniform(weights);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alias_sampler_stays_in_range(
        weights in proptest::collection::vec(0.0f64..10.0, 1..30),
        seed in 0u64..1000
    ) {
        let w = normalize_or_uniform(weights);
        let sampler = AliasSampler::new(&w);
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        for _ in 0..100 {
            let i = sampler.sample(&mut rng);
            prop_assert!(i < w.len());
            // Never sample a zero-weight item.
            prop_assert!(w[i] > 0.0 || w.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn alias_and_cdf_samplers_agree_on_arbitrary_weights(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        seed in 0u64..1000
    ) {
        // Both samplers target the same normalized distribution, so their
        // empirical frequencies over many draws must match each other (and
        // the target) within statistical tolerance.
        const DRAWS: usize = 20_000;
        let n = weights.len();
        let alias = AliasSampler::new(&weights);
        let cdf = CdfSampler::new(&weights);
        let mut rng_a = rand::SeedableRng::seed_from_u64(seed);
        let mut rng_c = rand::SeedableRng::seed_from_u64(seed.wrapping_add(1));
        let mut freq_a = vec![0.0f64; n];
        let mut freq_c = vec![0.0f64; n];
        for _ in 0..DRAWS {
            freq_a[alias.sample(&mut rng_a)] += 1.0 / DRAWS as f64;
            freq_c[cdf.sample(&mut rng_c)] += 1.0 / DRAWS as f64;
        }
        let target = normalize_or_uniform(weights);
        for i in 0..n {
            prop_assert!(
                (freq_a[i] - freq_c[i]).abs() < 0.03,
                "samplers disagree at {i}: alias {} vs cdf {}", freq_a[i], freq_c[i]
            );
            prop_assert!(
                (freq_a[i] - target[i]).abs() < 0.03,
                "alias off-target at {i}: {} vs {}", freq_a[i], target[i]
            );
            prop_assert!(
                (freq_c[i] - target[i]).abs() < 0.03,
                "cdf off-target at {i}: {} vs {}", freq_c[i], target[i]
            );
        }
    }

    #[test]
    fn zero_weight_items_are_never_drawn_by_either_sampler(
        raw in proptest::collection::vec((0.1f64..10.0, 0u8..2), 1..20),
        seed in 0u64..1000
    ) {
        // Mask a random subset of weights to exactly zero; as long as one
        // weight stays positive (we force index 0 if the mask covered
        // everything — all-zero triggers the uniform fallback instead), a
        // masked index must never surface from either sampler.
        let mut weights: Vec<f64> = raw
            .iter()
            .map(|&(w, masked)| if masked == 1 { 0.0 } else { w })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = raw[0].0;
        }
        let alias = AliasSampler::new(&weights);
        let cdf = CdfSampler::new(&weights);
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            let a = alias.sample(&mut rng);
            prop_assert!(weights[a] > 0.0, "alias drew zero-weight index {a}");
            let c = cdf.sample(&mut rng);
            prop_assert!(weights[c] > 0.0, "cdf drew zero-weight index {c}");
        }
    }

    #[test]
    fn discovery_invariants_hold_on_untrained_models(store in arb_store(), seed in 0u64..100) {
        // Even with random embeddings the structural invariants must hold.
        let model = new_model(ModelKind::DistMult, N as usize, K as usize, 8, seed);
        let config = DiscoveryConfig {
            strategy: StrategyKind::EntityFrequency,
            top_n: 5,
            max_candidates: 20,
            seed,
            threads: 1,
            ..DiscoveryConfig::default()
        };
        let report = discover_facts(model.as_ref(), &store, &config);
        let mut seen = std::collections::HashSet::new();
        for fact in &report.facts {
            prop_assert!(!store.contains(&fact.triple), "facts must be novel");
            prop_assert!(fact.rank >= 1.0 && fact.rank <= N as f64);
            prop_assert!(fact.rank <= 5.0, "top_n filter");
            prop_assert!(seen.insert(fact.triple), "facts must be unique");
        }
        for rel in &report.per_relation {
            prop_assert!(rel.candidates <= 20);
            prop_assert!(rel.facts <= rel.candidates);
            prop_assert!(rel.iterations <= 5);
        }
        prop_assert!(report.mrr() <= 1.0);
    }

    #[test]
    fn seeded_fxhash_dedup_matches_std_hashset_dedup(
        raw in proptest::collection::vec((0..N, 0..K, 0..N), 0..80),
        seed in 0u64..1000
    ) {
        // The candidate-generation loop dedups triples through a seeded
        // FxHashSet; first-seen filtering must behave exactly like the std
        // HashSet it replaced, for any stream and any hasher seed.
        let stream: Vec<Triple> = raw.into_iter().map(|(s, r, o)| Triple::new(s, r, o)).collect();
        let mut fx: fxhash::FxHashSet<Triple> = fxhash::FxHashSet::with_capacity_and_hasher(
            stream.len() * 2,
            fxhash::FxBuildHasher::seeded(seed),
        );
        let mut std_set = std::collections::HashSet::new();
        let kept_fx: Vec<Triple> = stream.iter().copied().filter(|t| fx.insert(*t)).collect();
        let kept_std: Vec<Triple> =
            stream.iter().copied().filter(|t| std_set.insert(*t)).collect();
        prop_assert_eq!(&kept_fx, &kept_std);
        prop_assert_eq!(fx.len(), std_set.len());
        for t in &stream {
            prop_assert_eq!(fx.contains(t), std_set.contains(t));
        }
    }

    #[test]
    fn top_k_heap_is_arrival_order_invariant(
        raw in proptest::collection::vec((0..N, 0..K, 0..N, 0u32..20), 1..40),
        cap in 0usize..12,
        seed in 0u64..1000,
    ) {
        // The heap's keep-set is defined by the total order
        // (rank, s, r, o) alone: permuting arrival order must never change
        // WHICH facts survive, even with heavy rank ties. (Emission order
        // tracks arrival by design, so compare sorted.)
        let mut facts: Vec<DiscoveredFact> = Vec::new();
        let mut distinct = std::collections::HashSet::new();
        for (s, r, o, rank) in raw {
            let triple = Triple::new(s, r, o);
            if distinct.insert(triple) {
                // Coarse ranks force plenty of exact ties.
                facts.push(DiscoveredFact { triple, rank: (rank / 4) as f64 });
            }
        }

        // Expected keep-set: the `cap` smallest under the total order.
        let mut expected = facts.clone();
        expected.sort_by(fact_order);
        expected.truncate(cap);

        let mut base = TopKFacts::new(Some(cap));
        for f in &facts {
            base.push(*f);
        }
        let mut base_kept = base.into_ordered();
        base_kept.sort_by(fact_order);
        prop_assert_eq!(&base_kept, &expected, "kept set is not the k best");

        // Fisher–Yates permutation of the arrival order.
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let mut shuffled = facts.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled.swap(i, j);
        }
        let mut heap = TopKFacts::new(Some(cap));
        for f in &shuffled {
            heap.push(*f);
        }
        let mut kept = heap.into_ordered();
        kept.sort_by(fact_order);
        prop_assert_eq!(&kept, &expected, "arrival order changed the kept set");
    }

    #[test]
    fn candidate_stream_is_unique_novel_and_chunking_invariant(
        store in arb_store(),
        seed in 0u64..100,
        chunk in 1usize..40,
    ) {
        let config = DiscoveryConfig {
            strategy: StrategyKind::EntityFrequency,
            max_candidates: 25,
            seed,
            threads: 1,
            ..DiscoveryConfig::default()
        };
        let measures = Measures::compute(config.strategy, &store);
        for r in store.used_relations() {
            let stream =
                CandidateStream::for_relation(&store, &config, r, &measures, None, None).unwrap();
            let all: Vec<Triple> = stream.collect();
            prop_assert!(all.len() <= config.max_candidates, "budget exceeded");
            let mut seen = std::collections::HashSet::new();
            for t in &all {
                prop_assert!(!store.contains(t), "yielded an existing triple");
                prop_assert!(seen.insert(*t), "duplicate candidate {t:?}");
                prop_assert_eq!(t.relation, r);
            }

            // Pulling in arbitrary chunk sizes must reproduce the exact
            // one-by-one sequence, and the bookkeeping must match.
            let mut chunked_stream =
                CandidateStream::for_relation(&store, &config, r, &measures, None, None).unwrap();
            let mut chunked = Vec::new();
            loop {
                let before = chunked.len();
                chunked_stream.fill_chunk(&mut chunked, before + chunk);
                if chunked.len() == before {
                    break;
                }
            }
            prop_assert_eq!(&chunked, &all);
            prop_assert_eq!(chunked_stream.produced(), all.len());
            prop_assert!(chunked_stream.iterations() <= MAX_ITERATIONS);
        }
    }

    #[test]
    fn sampled_entities_come_from_relation_pools(store in arb_store(), seed in 0u64..50) {
        let model = new_model(ModelKind::TransE, N as usize, K as usize, 8, seed);
        let config = DiscoveryConfig {
            strategy: StrategyKind::GraphDegree,
            top_n: usize::MAX >> 1, // keep everything: inspect raw candidates
            max_candidates: 30,
            seed,
            threads: 1,
            ..DiscoveryConfig::default()
        };
        let report = discover_facts(model.as_ref(), &store, &config);
        for fact in &report.facts {
            let r = fact.triple.relation;
            prop_assert!(store
                .subject_index(r)
                .entities
                .contains(&fact.triple.subject));
            prop_assert!(store
                .object_index(r)
                .entities
                .contains(&fact.triple.object));
        }
    }
}
