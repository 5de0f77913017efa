//! One regenerator per table/figure of the paper's evaluation (the
//! per-experiment index of DESIGN.md §4). Each `render` function returns the
//! human-readable report and writes a machine-readable JSON series to
//! `target/kgfd-results/`.

pub mod fig10_candidates_efficiency;
pub mod fig2_runtime;
pub mod fig3_clustering_dist;
pub mod fig4_mrr;
pub mod fig5_node_profiles;
pub mod fig6_efficiency;
pub mod fig7_runtime_sweep;
pub mod fig8_quality_sweep;
pub mod fig9_topn_efficiency;
pub mod squares_cost;
pub mod table1_datasets;

use crate::{GridCell, GridResults, TextTable};
use fact_discovery::StrategyKind;
use kgfd_embed::ModelKind;

/// Renders a per-dataset "strategy rows × model columns" matrix from grid
/// cells — the layout of the paper's grouped bar charts (Figures 2, 4, 6).
pub(crate) fn grid_matrix(
    results: &GridResults,
    metric_name: &str,
    metric: impl Fn(&GridCell) -> String,
) -> String {
    let mut out = String::new();
    for dataset in crate::DatasetRef::ALL {
        let cells = results.for_dataset(dataset);
        if cells.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{dataset} — {metric_name}\n"));
        let mut headers = vec!["strategy".to_string()];
        headers.extend(ModelKind::PAPER_GRID.iter().map(|m| m.name().to_string()));
        let mut table = TextTable::new(headers);
        for strategy in StrategyKind::PAPER_GRID {
            let mut row = vec![strategy.abbrev().to_string()];
            for model in ModelKind::PAPER_GRID {
                let cell = cells
                    .iter()
                    .find(|c| c.strategy == strategy && c.model == model);
                row.push(cell.map_or("-".into(), |c| metric(c)));
            }
            table.row(row);
        }
        out.push_str(&table.render());
    }
    out
}

/// Pearson correlation coefficient of two equal-length series.
pub(crate) fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }
}
