//! **§4.3 prose** — the CLUSTERING SQUARES cost blow-up. The paper excluded
//! the strategy after one FB15K-237 run took ~54 hours (vs 2–3 hours for the
//! others) while yielding only 98 facts/hour. This regenerator runs SQUARES
//! and TRIANGLES side by side and reports the preparation-cost ratio, which
//! is where the blow-up lives (the C4 coefficient is quadratic per node with
//! a neighbourhood intersection inside).

use crate::{trained_model, write_json, DatasetRef, Scale};
use fact_discovery::{cached_measures, discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_embed::ModelKind;
use serde::Serialize;

/// Side-by-side cost measurements.
#[derive(Debug, Clone, Serialize)]
pub struct SquaresCost {
    /// Strategy measured.
    pub strategy: String,
    /// Strategy-measure preparation seconds.
    pub preparation_s: f64,
    /// Total runtime seconds, the table build included.
    pub runtime_s: f64,
    /// Facts discovered.
    pub facts: usize,
    /// Facts per hour.
    pub facts_per_hour: f64,
}

/// Runs the comparison on FB15K-237-like with TransE.
pub fn measure(scale: Scale, top_n: usize, max_candidates: usize) -> Vec<SquaresCost> {
    let dataset = DatasetRef::Fb15k237;
    let data = dataset.load(scale);
    let model = trained_model(dataset, ModelKind::TransE, scale, &data);
    [
        StrategyKind::ClusteringTriangles,
        StrategyKind::ClusteringSquares,
    ]
    .into_iter()
    .map(|strategy| {
        let config = DiscoveryConfig {
            strategy,
            top_n,
            max_candidates,
            seed: 5,
            ..DiscoveryConfig::default()
        };
        // `data` is freshly loaded, so this lookup builds the table: time
        // it directly, as the intrinsic cost of the measure. Discovery then
        // finds the table built, so the build is added to its total, and
        // facts per hour cover a whole run, build included, as the paper's.
        let prep_start = std::time::Instant::now();
        cached_measures(strategy, &data.train);
        let preparation = prep_start.elapsed();
        let mut report = discover_facts(model.as_ref(), &data.train, &config);
        report.total += preparation;
        SquaresCost {
            strategy: strategy.name().to_string(),
            preparation_s: preparation.as_secs_f64(),
            runtime_s: report.total.as_secs_f64(),
            facts: report.facts.len(),
            facts_per_hour: report.facts_per_hour(),
        }
    })
    .collect()
}

/// Renders the ablation and writes `squares-cost-<scale>.json`.
pub fn render(scale: Scale) -> String {
    let (top_n, max_candidates) = match scale {
        Scale::Standard => (500, 500),
        Scale::Mini => (50, 100),
    };
    let rows = measure(scale, top_n, max_candidates);
    write_json(&format!("squares-cost-{}", scale.name()), &rows);
    let ratio = if rows[0].preparation_s > 0.0 {
        rows[1].preparation_s / rows[0].preparation_s
    } else {
        f64::INFINITY
    };
    let mut out = format!(
        "§4.3 ablation — CLUSTERING SQUARES cost ({} scale, fb15k237-like, TransE)\n",
        scale.name()
    );
    let mut table =
        crate::TextTable::new(["strategy", "prep (s)", "total (s)", "facts", "facts/hour"]);
    for r in &rows {
        table.row([
            r.strategy.clone(),
            format!("{:.3}", r.preparation_s),
            format!("{:.2}", r.runtime_s),
            r.facts.to_string(),
            format!("{:.0}", r.facts_per_hour),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "squares/triangles preparation-cost ratio: {ratio:.1}× \
         (paper: ~54 h vs 2–3 h ≈ 20×)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squares_preparation_dominates_triangles() {
        let rows = measure(Scale::Mini, 20, 40);
        let triangles = &rows[0];
        let squares = &rows[1];
        assert!(
            squares.preparation_s > triangles.preparation_s,
            "squares {} should cost more than triangles {}",
            squares.preparation_s,
            triangles.preparation_s
        );
    }
}
