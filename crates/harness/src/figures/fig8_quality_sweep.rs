//! **Figure 8** — fact quality (MRR) on FB15K-237 with TransE and
//! CLUSTERING TRIANGLES: (a) vs `max_candidates` at fixed `top_n`,
//! (b) vs `top_n` at fixed `max_candidates`. The paper's shape: MRR is
//! stable in `max_candidates` but *decreases* as `top_n` grows (looser
//! filter → lower-ranked facts admitted).

use crate::{write_json, SweepResults, TextTable};
use fact_discovery::StrategyKind;

/// Renders both panels and writes `fig8-<scale>.json`.
pub fn render(results: &SweepResults) -> String {
    write_json(&format!("fig8-{}", results.scale.name()), &results.cells);
    let strategy = StrategyKind::ClusteringTriangles;
    let (mcs, tops) = results.axes(strategy);
    let pivot_top = *tops.last().unwrap_or(&0);
    let pivot_mc = *mcs.last().unwrap_or(&0);

    let mut out = format!(
        "Figure 8 — MRR under hyperparameter sweeps ({strategy}, fb15k237-like, TransE, {} scale)\n",
        results.scale.name()
    );

    out.push_str(&format!(
        "\n(a) MRR vs max_candidates (top_n = {pivot_top})\n"
    ));
    let mut a = TextTable::new(["max_candidates", "MRR", "facts"]);
    for &mc in &mcs {
        if let Some(c) = results.at(strategy, mc, pivot_top) {
            a.row([mc.to_string(), format!("{:.4}", c.mrr), c.facts.to_string()]);
        }
    }
    out.push_str(&a.render());

    out.push_str(&format!(
        "\n(b) MRR vs top_n (max_candidates = {pivot_mc})\n"
    ));
    let mut b = TextTable::new(["top_n", "MRR", "facts"]);
    for &t in &tops {
        if let Some(c) = results.at(strategy, pivot_mc, t) {
            b.row([t.to_string(), format!("{:.4}", c.mrr), c.facts.to_string()]);
        }
    }
    out.push_str(&b.render());
    out
}
