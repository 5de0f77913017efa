//! `BENCHMARK.json` (the workloads and the metric names and units) and the
//! run's printed and written results.

use crate::BenchResult;
use serde_json::Value;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> BenchResult<Spec> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> BenchResult<Spec> {
        let doc: Value = serde_json::from_str(text)?;
        let metrics = |key: &str| -> BenchResult<Vec<MetricSpec>> {
            doc[key]
                .as_array()
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m[k].as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                    })
                })
                .collect()
        };
        let workloads = doc["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: no workloads list")?
            .iter()
            .filter_map(|w| w["name"].as_str().map(str::to_string))
            .collect();
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// `values` in the order and with the units of `specs`; an error when a
/// declared metric is missing, an undeclared one is present, or a value is
/// not a finite number.
pub fn select(
    specs: &[MetricSpec],
    values: &[(&str, f64)],
) -> BenchResult<Vec<(String, f64, String)>> {
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !specs.iter().any(|s| s.name == *n))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json").into());
    }
    specs
        .iter()
        .map(|s| {
            let value = values
                .iter()
                .find(|(n, _)| *n == s.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} was not measured", s.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", s.name).into());
            }
            Ok((s.name.clone(), value, s.unit.clone()))
        })
        .collect()
}

/// The `name value unit` lines printed for every metric.
pub fn lines(metrics: &[(String, f64, String)]) -> String {
    metrics
        .iter()
        .map(|(n, v, u)| format!("{n} {v} {u}\n"))
        .collect()
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`
/// (`{"name": {"value": v, "unit": u}}`).
pub fn result(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                Value::Object(vec![
                    ("value".into(), serde_json::json!((*v))),
                    ("unit".into(), serde_json::json!((u.as_str()))),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), serde_json::json!(attempted)),
        ("failed".into(), serde_json::json!(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}
