//! **Figure 7** — runtime of fact discovery on FB15K-237 with TransE as
//! `max_candidates` grows, one line per `top_n`. The paper's shape: the
//! `top_n` lines overlap (the filter costs nothing) while runtime rises
//! roughly linearly with `max_candidates`.

use crate::figures::{sweep_matrix, SweepRows};
use crate::{write_json, SweepResults};
use fact_discovery::StrategyKind;

/// Renders the runtime sweep and writes `fig7-<scale>.json`.
pub fn render(results: &SweepResults) -> String {
    write_json(&format!("fig7-{}", results.scale.name()), &results.cells);
    let mut out = format!(
        "Figure 7 — runtime vs max_candidates, lines per top_n (fb15k237-like, TransE, {} scale)\n",
        results.scale.name()
    );
    for strategy in [
        StrategyKind::UniformRandom,
        StrategyKind::ClusteringTriangles,
    ] {
        if let Some(table) = sweep_matrix(results, strategy, SweepRows::MaxCandidates, |c| {
            format!("{:.2}", c.runtime_s)
        }) {
            out.push_str(&format!("\n{strategy}: runtime (s)\n{table}"));
        }
    }
    out
}
