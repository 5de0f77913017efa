//! Compare all six sampling strategies on one dataset × model pair, printing
//! the three metrics of the paper's evaluation (runtime, MRR, efficiency)
//! side by side — a one-screen version of Figures 2 + 4 + 6, including the
//! CLUSTERING SQUARES strategy the paper had to exclude at full scale.
//!
//! ```text
//! cargo run --release -p kgfd-harness --example strategy_comparison
//! ```

use fact_discovery::{discover_facts, DiscoveryConfig, StrategyKind};
use kgfd_embed::ModelKind;
use kgfd_harness::{trained_model, DatasetRef, Scale, TextTable};

fn main() {
    let dataset = DatasetRef::Fb15k237;
    let scale = Scale::Mini;
    let data = dataset.load(scale);
    println!(
        "dataset: {} ({} triples, {} entities, {} relations)",
        data.name,
        data.train.len(),
        data.train.num_entities(),
        data.train.num_relations()
    );
    let model = trained_model(
        dataset,
        ModelKind::TransE,
        scale,
        &data,
        kgfd_pool::default_threads(),
    );
    println!("model: transe (zoo-trained, disk-cached)\n");

    let mut table = TextTable::new([
        "strategy",
        "prep (ms)",
        "total (s)",
        "candidates",
        "facts",
        "MRR",
        "facts/hour",
    ]);
    for strategy in StrategyKind::ALL {
        let config = DiscoveryConfig {
            strategy,
            top_n: 50,
            max_candidates: 100,
            seed: 3,
            ..DiscoveryConfig::default()
        };
        let report = discover_facts(model.as_ref(), &data.train, &config);
        table.row([
            strategy.name().to_string(),
            format!("{:.1}", report.preparation.as_secs_f64() * 1e3),
            format!("{:.3}", report.total.as_secs_f64()),
            report.candidates_generated().to_string(),
            report.facts.len().to_string(),
            format!("{:.4}", report.mrr()),
            format!("{:.0}", report.facts_per_hour()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expected shape (paper §4.2): EF/GD/CT lead on MRR; UR/CC trail; \
         CS pays a large preparation cost for no quality advantage."
    );
}
