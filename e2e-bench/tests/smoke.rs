//! The traced replay at mini scale (no `kgfd` binary needed) and the
//! agreement between the metrics the benchmark computes and `BENCHMARK.json`.

use fact_discovery::{discover_facts, StrategyKind};
use kgfd_datasets::{fb15k237_like, mini};
use kgfd_e2e_bench::inputs::Files;
use kgfd_e2e_bench::replay::{self, load_graph};
use kgfd_e2e_bench::report::{self, MetricSpec, Spec};
use kgfd_e2e_bench::run::{replay_cli, END_TO_END, PER_LAYER};
use kgfd_e2e_bench::workload::Workload;
use kgfd_embed::read_model_file;
use std::path::{Path, PathBuf};

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn traced_replay_covers_its_wall_time_and_finds_the_library_facts() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-replay");
    let files = Files::create(dir).unwrap();
    let seed = 7;
    let r = replay_cli(
        Workload::DiscoverFbEf,
        &files,
        &mini(&fb15k237_like()),
        seed,
    )
    .unwrap();

    let coverage = r.replay.ledger.coverage();
    assert!(coverage >= 0.95, "ledger coverage {coverage}");

    let graph = load_graph(&files.train()).unwrap();
    let model = read_model_file(files.model()).unwrap();
    let config = replay::discover_config(StrategyKind::EntityFrequency, seed, 1);
    let report = discover_facts(model.as_ref(), &graph.store, &config);
    assert!(!report.facts.is_empty());
    assert_eq!(
        replay::render_facts(&graph.vocab, &report.facts),
        r.output,
        "the replay must find discover_facts' facts at one thread"
    );

    let declared = spec().per_layer;
    for (name, value) in r.replay.layer_metrics() {
        assert!(declared.iter().any(|m| m.name == name), "{name} undeclared");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let spec = spec();
    let names = |ms: &[MetricSpec]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&spec.end_to_end), END_TO_END);
    assert_eq!(names(&spec.per_layer), PER_LAYER);
    let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, workloads);

    for (declared, measured) in [
        (&spec.end_to_end, &END_TO_END[..]),
        (&spec.per_layer, &PER_LAYER[..]),
    ] {
        let values: Vec<(&str, f64)> = measured.iter().map(|&n| (n, 1.25)).collect();
        let selected = report::select(declared, &values).unwrap();
        let printed = report::lines(&selected);
        let json = report::result(1, 0, &selected);
        for m in declared {
            assert!(
                printed.contains(&format!("{} 1.25 {}\n", m.name, m.unit)),
                "{} is not printed with its unit",
                m.name
            );
            assert_eq!(json["metrics"][m.name.as_str()]["unit"], m.unit.as_str());
        }
        assert!(
            report::select(declared, &values[1..]).is_err(),
            "a missing metric is an error"
        );
    }
}
