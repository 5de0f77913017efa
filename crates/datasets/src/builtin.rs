//! Profiles mirroring the paper's four evaluation datasets (Table 1), scaled
//! to CPU-experiment size, plus further-scaled `mini` variants for tests.
//!
//! Scaling rationale (DESIGN.md §1): entity counts are divided by 10–20 while
//! keeping the *ratios* that drive the paper's findings —
//!
//! * triples-per-entity (sparsity): FB15K-237 ≈ 37, WN18RR ≈ 4.2 (the paper's
//!   "4.5 relations per entity"), YAGO3-10 ≈ 17.5, CoDEx-L ≈ 14;
//! * relation counts are kept at paper scale where feasible (WN18RR's 11 and
//!   YAGO3-10's 37 exactly; FB15K-237's 237 is reduced to 47 to keep
//!   per-relation triple counts realistic at 1/10 entity scale);
//! * density ordering: FB15K-237 dense ≫ CoDEx-L ≈ YAGO3-10 > WN18RR sparse,
//!   controlled via community structure.

use crate::DatasetProfile;

/// FB15K-237-like: small, very dense, many relations, high clustering.
pub fn fb15k237_like() -> DatasetProfile {
    DatasetProfile {
        name: "fb15k237-like".into(),
        entities: 1_454,
        relations: 47,
        train_triples: 27_212,
        valid_triples: 1_754,
        test_triples: 2_043,
        entity_skew: 0.85,
        relation_skew: 0.7,
        communities: 40,
        intra_community: 0.8,
        relation_spread: 0.25,
        seed: 0xFB15,
    }
}

/// WN18RR-like: many entities, few triples, only 11 relations, very sparse
/// (average clustering ≈ 0.059 in the paper's Figure 3).
pub fn wn18rr_like() -> DatasetProfile {
    DatasetProfile {
        name: "wn18rr-like".into(),
        entities: 4_094,
        relations: 11,
        train_triples: 8_684,
        valid_triples: 303,
        test_triples: 313,
        entity_skew: 0.75,
        relation_skew: 0.8,
        communities: 700,
        intra_community: 0.55,
        relation_spread: 0.5,
        seed: 0x3818,
    }
}

/// YAGO3-10-like: the largest graph, 37 relations, moderately dense (every
/// original entity has ≥ 10 relations).
pub fn yago310_like() -> DatasetProfile {
    DatasetProfile {
        name: "yago310-like".into(),
        entities: 6_159,
        relations: 37,
        train_triples: 53_952,
        valid_triples: 250,
        test_triples: 250,
        entity_skew: 1.0,
        relation_skew: 0.75,
        communities: 150,
        intra_community: 0.65,
        relation_spread: 0.2,
        seed: 0x1A60,
    }
}

/// CoDEx-L-like: medium size, 69 relations, 90:5:5 split ratio.
pub fn codexl_like() -> DatasetProfile {
    DatasetProfile {
        name: "codexl-like".into(),
        entities: 3_898,
        relations: 69,
        train_triples: 27_540,
        valid_triples: 1_530,
        test_triples: 1_530,
        entity_skew: 0.9,
        relation_skew: 0.65,
        communities: 90,
        intra_community: 0.6,
        relation_spread: 0.2,
        seed: 0xC0DE,
    }
}

/// A profile scaled down by 10× for unit/integration tests and quick benches.
pub fn mini(profile: &DatasetProfile) -> DatasetProfile {
    let mut p = profile.scaled(0.1);
    p.name = format!("{}-mini", p.name);
    // Keep community size roughly constant so clustering survives the scale-down.
    p.communities = (p.communities / 8).max(4);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use kgfd_graph_stats::GraphSummary;

    #[test]
    fn profiles_preserve_paper_density_ratios() {
        // triples-per-entity must track the original datasets.
        let fb = fb15k237_like().implied_density();
        let wn = wn18rr_like().implied_density();
        let yago = yago310_like().implied_density();
        let codex = codexl_like().implied_density();
        assert!((fb - 37.4).abs() < 1.0, "fb density {fb}");
        assert!((wn - 4.24).abs() < 0.5, "wn density {wn}");
        assert!((yago - 17.5).abs() < 1.0, "yago density {yago}");
        assert!((codex - 14.1).abs() < 1.0, "codex density {codex}");
    }

    #[test]
    fn relation_counts_follow_table1_ordering() {
        assert_eq!(wn18rr_like().relations, 11);
        assert_eq!(yago310_like().relations, 37);
        assert_eq!(codexl_like().relations, 69);
        assert!(fb15k237_like().relations > codexl_like().relations / 2);
    }

    #[test]
    fn mini_profiles_generate_quickly_and_keep_shape() {
        let p = mini(&fb15k237_like());
        let d = generate(&p).unwrap();
        assert_eq!(d.train.num_entities(), 145);
        assert!(d.train.len() > 1_000);
    }

    #[test]
    fn clustering_ordering_matches_figure3() {
        // Figure 3: WN18RR is by far the sparsest (avg coefficient 0.059);
        // FB15K-237 is the densest. Verify on the mini variants.
        let fb = GraphSummary::compute(&generate(&mini(&fb15k237_like())).unwrap().train);
        let wn = GraphSummary::compute(&generate(&mini(&wn18rr_like())).unwrap().train);
        assert!(
            fb.avg_clustering > 2.0 * wn.avg_clustering,
            "fb={} wn={}",
            fb.avg_clustering,
            wn.avg_clustering
        );
    }
}
