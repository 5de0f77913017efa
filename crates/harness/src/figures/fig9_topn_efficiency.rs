//! **Figure 9** — impact of `top_n` on discovery efficiency, lines per
//! `max_candidates`: (a) CLUSTERING TRIANGLES, (b) UNIFORM RANDOM. The
//! paper's shape: efficiency rises with `top_n` (more candidates pass the
//! filter at zero extra cost), with the triangles strategy leveling off
//! around `top_n ≈ 200` (the elbow the paper declines in favor of 500).

use crate::figures::{sweep_matrix, SweepRows};
use crate::{write_json, SweepResults};
use fact_discovery::StrategyKind;

/// Renders both panels and writes `fig9-<scale>.json`.
pub fn render(results: &SweepResults) -> String {
    write_json(&format!("fig9-{}", results.scale.name()), &results.cells);
    let mut out = format!(
        "Figure 9 — efficiency vs top_n, lines per max_candidates (fb15k237-like, TransE, {} scale)\n",
        results.scale.name()
    );
    for (panel, strategy) in [
        ("(a)", StrategyKind::ClusteringTriangles),
        ("(b)", StrategyKind::UniformRandom),
    ] {
        if let Some(table) = sweep_matrix(results, strategy, SweepRows::TopN, |c| {
            format!("{:.0}", c.facts_per_hour)
        }) {
            out.push_str(&format!("\n{panel} {strategy}: facts/hour\n{table}"));
        }
    }
    out
}
