//! The six sampling strategies of the paper (§3.1.2).

use kgfd_kg::NodeMeasure;
use serde::{Deserialize, Serialize};

/// Which entity-sampling strategy drives candidate generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Equal probability for every entity in the pool (Eq. 1) — the baseline.
    UniformRandom,
    /// Probability ∝ per-side occurrence count (Eq. 2).
    EntityFrequency,
    /// Probability ∝ node degree, sides not distinguished (Eq. 3).
    GraphDegree,
    /// Probability ∝ local clustering coefficient (Eq. 5).
    ClusteringCoefficient,
    /// Probability ∝ local triangle count (Eq. 4).
    ClusteringTriangles,
    /// Probability ∝ square (C4) clustering coefficient (Eq. 6). Excluded
    /// from the paper's grid for cost (§4.3: one run took ~54 h); available
    /// here for the `repro squares` ablation.
    ClusteringSquares,
    /// Probability ∝ PageRank — a library extension following the paper's
    /// conclusion that popularity-correlated measures sample well (§4.2.4).
    PageRank,
}

impl StrategyKind {
    /// The paper's six strategies (§3.1.2).
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::UniformRandom,
        StrategyKind::EntityFrequency,
        StrategyKind::GraphDegree,
        StrategyKind::ClusteringCoefficient,
        StrategyKind::ClusteringTriangles,
        StrategyKind::ClusteringSquares,
    ];

    /// The paper's six plus the library-extension strategies.
    pub const WITH_EXTENSIONS: [StrategyKind; 7] = [
        StrategyKind::UniformRandom,
        StrategyKind::EntityFrequency,
        StrategyKind::GraphDegree,
        StrategyKind::ClusteringCoefficient,
        StrategyKind::ClusteringTriangles,
        StrategyKind::ClusteringSquares,
        StrategyKind::PageRank,
    ];

    /// The five strategies of the paper's comparative figures (2, 4, 6),
    /// in their x-axis order; CLUSTERING SQUARES is excluded (§4.3).
    pub const PAPER_GRID: [StrategyKind; 5] = [
        StrategyKind::UniformRandom,
        StrategyKind::EntityFrequency,
        StrategyKind::GraphDegree,
        StrategyKind::ClusteringCoefficient,
        StrategyKind::ClusteringTriangles,
    ];

    /// Full name as written in the paper.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::UniformRandom => "UNIFORM RANDOM",
            StrategyKind::EntityFrequency => "ENTITY FREQUENCY",
            StrategyKind::GraphDegree => "GRAPH DEGREE",
            StrategyKind::ClusteringCoefficient => "CLUSTERING COEFFICIENT",
            StrategyKind::ClusteringTriangles => "CLUSTERING TRIANGLES",
            StrategyKind::ClusteringSquares => "CLUSTERING SQUARES",
            StrategyKind::PageRank => "PAGERANK (extension)",
        }
    }

    /// Two-letter abbreviation used on the paper's figure axes.
    pub fn abbrev(self) -> &'static str {
        match self {
            StrategyKind::UniformRandom => "UR",
            StrategyKind::EntityFrequency => "EF",
            StrategyKind::GraphDegree => "GD",
            StrategyKind::ClusteringCoefficient => "CC",
            StrategyKind::ClusteringTriangles => "CT",
            StrategyKind::ClusteringSquares => "CS",
            StrategyKind::PageRank => "PR",
        }
    }

    /// `true` for the strategies whose weights distinguish the subject and
    /// object sides of a relation (the paper notes UNIFORM RANDOM and ENTITY
    /// FREQUENCY weights "may not be equal" across sides, while GRAPH DEGREE
    /// and the clustering strategies are side-agnostic).
    pub fn is_side_aware(self) -> bool {
        self.node_measure().is_none()
    }

    /// The graph-global measure this strategy samples by, or `None` for the
    /// side-aware strategies, whose weights come from the relation's own
    /// side pools.
    pub fn node_measure(self) -> Option<NodeMeasure> {
        match self {
            StrategyKind::UniformRandom | StrategyKind::EntityFrequency => None,
            StrategyKind::GraphDegree => Some(NodeMeasure::Degree),
            StrategyKind::ClusteringCoefficient => Some(NodeMeasure::ClusteringCoefficient),
            StrategyKind::ClusteringTriangles => Some(NodeMeasure::Triangles),
            StrategyKind::ClusteringSquares => Some(NodeMeasure::SquareClustering),
            StrategyKind::PageRank => Some(NodeMeasure::PageRank),
        }
    }

    /// Parses a strategy name, case-insensitively: the figure abbreviation
    /// (`ur`, `ef`, `gd`, `cc`, `ct`, `cs`, `pr`) or a long form
    /// (`uniform`, `entity_frequency`, `cluster_squares`, ...).
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        let kind = match name.to_ascii_lowercase().as_str() {
            "ur" | "uniform" | "random_uniform" => StrategyKind::UniformRandom,
            "ef" | "frequency" | "entity_frequency" => StrategyKind::EntityFrequency,
            "gd" | "degree" | "graph_degree" => StrategyKind::GraphDegree,
            "cc" | "coefficient" | "cluster_coefficient" => StrategyKind::ClusteringCoefficient,
            "ct" | "triangles" | "cluster_triangles" => StrategyKind::ClusteringTriangles,
            "cs" | "squares" | "cluster_squares" => StrategyKind::ClusteringSquares,
            "pr" | "pagerank" => StrategyKind::PageRank,
            _ => return None,
        };
        Some(kind)
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_excludes_squares() {
        assert_eq!(StrategyKind::PAPER_GRID.len(), 5);
        assert!(!StrategyKind::PAPER_GRID.contains(&StrategyKind::ClusteringSquares));
    }

    #[test]
    fn abbreviations_match_figure_axes() {
        let abbrevs: Vec<_> = StrategyKind::PAPER_GRID
            .iter()
            .map(|s| s.abbrev())
            .collect();
        assert_eq!(abbrevs, vec!["UR", "EF", "GD", "CC", "CT"]);
    }

    #[test]
    fn extensions_are_not_in_the_paper_lists() {
        assert!(!StrategyKind::ALL.contains(&StrategyKind::PageRank));
        assert!(!StrategyKind::PAPER_GRID.contains(&StrategyKind::PageRank));
        assert!(StrategyKind::WITH_EXTENSIONS.contains(&StrategyKind::PageRank));
    }

    #[test]
    fn side_awareness_follows_the_paper() {
        assert!(StrategyKind::UniformRandom.is_side_aware());
        assert!(StrategyKind::EntityFrequency.is_side_aware());
        assert!(!StrategyKind::GraphDegree.is_side_aware());
        assert!(!StrategyKind::ClusteringTriangles.is_side_aware());
    }

    #[test]
    fn every_spelling_parses_case_insensitively() {
        let spellings = [
            (
                StrategyKind::UniformRandom,
                ["ur", "uniform", "random_uniform"],
            ),
            (
                StrategyKind::EntityFrequency,
                ["ef", "frequency", "entity_frequency"],
            ),
            (StrategyKind::GraphDegree, ["gd", "degree", "graph_degree"]),
            (
                StrategyKind::ClusteringCoefficient,
                ["cc", "coefficient", "cluster_coefficient"],
            ),
            (
                StrategyKind::ClusteringTriangles,
                ["ct", "triangles", "cluster_triangles"],
            ),
            (
                StrategyKind::ClusteringSquares,
                ["cs", "squares", "cluster_squares"],
            ),
        ];
        for (kind, names) in spellings {
            for name in names {
                assert_eq!(StrategyKind::from_name(name), Some(kind), "{name}");
                let upper = name.to_ascii_uppercase();
                assert_eq!(StrategyKind::from_name(&upper), Some(kind), "{upper}");
            }
        }
        for name in ["pr", "pagerank", "PageRank"] {
            assert_eq!(StrategyKind::from_name(name), Some(StrategyKind::PageRank));
        }
        for name in ["", "e f", "squares2", "PAGERANK (extension)"] {
            assert_eq!(StrategyKind::from_name(name), None, "{name:?}");
        }
    }
}
