//! Golden-file regression tests for the serialized schemas downstream
//! tooling parses: the `DiscoveryReport` JSON shape and the JSONL `Event`
//! wrapping a `RunManifest`.
//!
//! A silent field addition, rename, or representation change shows up here
//! as a readable line diff against the snapshots in `tests/golden/`. When a
//! schema change is *intentional*, regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and commit the diff — that turns the change into a reviewable artifact
//! instead of a surprise for JSONL consumers.

use fact_discovery::{DiscoveredFact, DiscoveryReport, RelationBreakdown, StrategyKind};
use kgfd_kg::{RelationId, Triple};
use std::path::PathBuf;
use std::time::Duration;

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/harness; the snapshots live at the
    // workspace root next to this test's source.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `actual` against the named snapshot, failing with a line diff.
/// `UPDATE_GOLDEN=1` rewrites the snapshot instead.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             (run `UPDATE_GOLDEN=1 cargo test --test golden` to create it)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut diff = String::new();
    let expected_lines: Vec<&str> = expected.lines().collect();
    let actual_lines: Vec<&str> = actual.lines().collect();
    let n = expected_lines.len().max(actual_lines.len());
    for i in 0..n {
        match (expected_lines.get(i), actual_lines.get(i)) {
            (Some(e), Some(a)) if e == a => {}
            (e, a) => {
                if let Some(e) = e {
                    diff.push_str(&format!("  -{:>4} | {e}\n", i + 1));
                }
                if let Some(a) = a {
                    diff.push_str(&format!("  +{:>4} | {a}\n", i + 1));
                }
            }
        }
    }
    panic!(
        "serialized schema drifted from {} — if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden` and commit the diff:\n{diff}",
        path.display()
    );
}

/// A fully-populated report with fixed values: every field exercised, no
/// wall-clock nondeterminism.
fn fixture_report() -> DiscoveryReport {
    DiscoveryReport {
        strategy: StrategyKind::ClusteringTriangles,
        top_n: 500,
        max_candidates: 500,
        facts: vec![
            DiscoveredFact {
                triple: Triple::new(3u32, 1u32, 7u32),
                rank: 1.5,
            },
            DiscoveredFact {
                triple: Triple::new(4u32, 0u32, 2u32),
                rank: 42.0,
            },
        ],
        per_relation: vec![RelationBreakdown {
            relation: RelationId(1),
            candidates: 17,
            facts: 2,
            pruned: 3,
            iterations: 2,
            generation: Duration::new(1, 250_000_000),
            evaluation: Duration::new(2, 0),
        }],
        preparation: Duration::from_millis(75),
        total: Duration::new(3, 325_000_000),
    }
}

#[test]
fn discovery_report_schema_is_stable() {
    let json = serde_json::to_string_pretty(&fixture_report()).unwrap();
    assert_matches_golden("discovery_report.json", &json);
}

#[test]
fn discovery_report_roundtrips_through_json() {
    let report = fixture_report();
    let json = serde_json::to_string(&report).unwrap();
    let back: DiscoveryReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.facts, report.facts);
    assert_eq!(back.total, report.total);
    assert_eq!(back.per_relation.len(), report.per_relation.len());
    assert_eq!(
        back.per_relation[0].generation,
        Duration::new(1, 250_000_000)
    );
}

#[test]
fn run_manifest_event_schema_is_stable() {
    // Built by hand (not RunManifest::new) so the crate version in the
    // snapshot is fixed rather than tracking the workspace version.
    let manifest = kgfd_obs::RunManifest {
        command: "discover".to_string(),
        crate_version: "0.0.0-golden".to_string(),
        strategy: "CLUSTERING TRIANGLES".to_string(),
        model: "TransE".to_string(),
        seed: 7,
        dataset: kgfd_obs::DatasetShape {
            entities: 1234,
            relations: 11,
            triples: 56789,
        },
        config: Vec::new(),
        wall_clock_s: 12.5,
        recoveries: vec![
            "zoo.cache.corrupt: golden.kgfd: checksum mismatch (evicted, retrained)".to_string(),
        ],
        resumed_from: Some("golden.ckpt-00000010".to_string()),
        trace: Some(kgfd_obs::TraceSummary {
            spans: 3,
            max_depth: 2,
            top_self_time: vec![kgfd_obs::TraceNode {
                name: "discover.total".to_string(),
                count: 1,
                total_us: 12_500_000,
                self_us: 2_000_000,
            }],
        }),
        pool: Some(kgfd_obs::PoolSummary {
            jobs: 48,
            queue_wait_us_p50: Some(12.5),
            queue_wait_us_p95: Some(85.0),
            utilization: vec![kgfd_obs::PoolPhase {
                phase: "discover".to_string(),
                utilization: 0.82,
            }],
        }),
    }
    .with_config("top_n", 500usize)
    .with_config("max_candidates", 500usize)
    .with_config("threads", 4usize)
    .with_config("exploration_epsilon", 0.1f64)
    .with_config("consolidate_sides", false)
    .with_config("note", "golden");
    let event = kgfd_obs::Event {
        run: "golden-run".to_string(),
        t_us: 1_000_000,
        payload: kgfd_obs::Payload::Manifest(Box::new(manifest)),
    };
    let json = serde_json::to_string_pretty(&event).unwrap();
    assert_matches_golden("run_manifest_event.json", &json);
}
