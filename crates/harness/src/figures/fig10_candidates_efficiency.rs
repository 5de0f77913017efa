//! **Figure 10** — impact of `max_candidates` on efficiency at the pivot
//! `top_n`: (a) CLUSTERING TRIANGLES, (b) UNIFORM RANDOM. The paper's
//! shape: triangles' efficiency levels off near `max_candidates = 500`
//! (their chosen value); uniform random is noisier.

use crate::{write_json, SweepResults, TextTable};
use fact_discovery::StrategyKind;

/// Renders both panels and writes `fig10-<scale>.json`.
pub fn render(results: &SweepResults) -> String {
    write_json(&format!("fig10-{}", results.scale.name()), &results.cells);
    let pivot_top = results.cells.iter().map(|c| c.top_n).max().unwrap_or(0);

    let mut out = format!(
        "Figure 10 — efficiency vs max_candidates (top_n = {pivot_top}, fb15k237-like, TransE, {} scale)\n",
        results.scale.name()
    );
    for (panel, strategy) in [
        ("(a)", StrategyKind::ClusteringTriangles),
        ("(b)", StrategyKind::UniformRandom),
    ] {
        let (mcs, _) = results.axes(strategy);
        if mcs.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{panel} {strategy}\n"));
        let mut table = TextTable::new(["max_candidates", "facts/hour", "facts", "runtime (s)"]);
        for &mc in &mcs {
            if let Some(c) = results.at(strategy, mc, pivot_top) {
                table.row([
                    mc.to_string(),
                    format!("{:.0}", c.facts_per_hour),
                    c.facts.to_string(),
                    format!("{:.2}", c.runtime_s),
                ]);
            }
        }
        out.push_str(&table.render());
    }
    out
}
