//! Experiment vocabulary: the paper's four datasets, at two scales.

use kgfd_datasets::{
    codexl_like, fb15k237_like, generate, mini, wn18rr_like, yago310_like, DatasetProfile,
};
use kgfd_kg::Dataset;
use serde::{Deserialize, Serialize};

/// The four benchmark datasets of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetRef {
    /// FB15K-237-like (dense, many relations).
    Fb15k237,
    /// WN18RR-like (sparse, 11 relations).
    Wn18rr,
    /// YAGO3-10-like (largest).
    Yago310,
    /// CoDEx-L-like (medium).
    CodexL,
}

impl DatasetRef {
    /// All four datasets, in Table 1 order.
    pub const ALL: [DatasetRef; 4] = [
        DatasetRef::Fb15k237,
        DatasetRef::Wn18rr,
        DatasetRef::Yago310,
        DatasetRef::CodexL,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetRef::Fb15k237 => "fb15k237-like",
            DatasetRef::Wn18rr => "wn18rr-like",
            DatasetRef::Yago310 => "yago310-like",
            DatasetRef::CodexL => "codexl-like",
        }
    }

    /// The generator profile at the given scale.
    pub fn profile(self, scale: Scale) -> DatasetProfile {
        let base = match self {
            DatasetRef::Fb15k237 => fb15k237_like(),
            DatasetRef::Wn18rr => wn18rr_like(),
            DatasetRef::Yago310 => yago310_like(),
            DatasetRef::CodexL => codexl_like(),
        };
        match scale {
            Scale::Standard => base,
            Scale::Mini => mini(&base),
        }
    }

    /// Generates the dataset (deterministic per scale).
    pub fn load(self, scale: Scale) -> Dataset {
        generate(&self.profile(scale)).expect("builtin profiles are valid")
    }
}

impl std::fmt::Display for DatasetRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Experiment scale: `Standard` reproduces the paper's shape at the scaled
/// profile sizes (DESIGN.md §1); `Mini` is a further 10× reduction for CI
/// and quick benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Scaled-paper size (the default for EXPERIMENTS.md numbers).
    Standard,
    /// 10× smaller, seconds-fast.
    Mini,
}

impl Scale {
    /// Stable name for cache keys and output files.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Standard => "standard",
            Scale::Mini => "mini",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_100_configurations() {
        // §4.3.1: "four datasets, five embeddings, and five strategies,
        // resulting in a total of 100 experimental configurations".
        let grid = crate::GridOptions::for_scale(Scale::Standard);
        assert_eq!(
            grid.datasets.len() * grid.models.len() * grid.strategies.len(),
            100
        );
    }

    #[test]
    fn mini_datasets_load_quickly() {
        let d = DatasetRef::Fb15k237.load(Scale::Mini);
        assert_eq!(d.train.num_entities(), 145);
    }

    #[test]
    fn profiles_differ_between_scales() {
        let std = DatasetRef::Wn18rr.profile(Scale::Standard);
        let mini = DatasetRef::Wn18rr.profile(Scale::Mini);
        assert!(std.entities > mini.entities * 5);
    }
}
