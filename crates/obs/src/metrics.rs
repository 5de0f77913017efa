//! Global metrics registry: counters, gauges, and log-bucketed histograms,
//! plus their Prometheus text rendering ([`prometheus_text`]).
//!
//! All hot-path operations (`inc`, `set`, `record`) are lock-free atomics;
//! the registry lock is taken only on first use of a metric name and when
//! snapshotting. Histograms bucket values logarithmically (16 sub-buckets
//! per octave → worst-case relative quantile error 2^(1/16) − 1 ≈ 4.4%),
//! covering 2⁻¹⁶ .. 2⁴⁸ — sub-microsecond to multi-day when recording
//! microseconds.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Sub-buckets per power of two.
const SUBDIV: usize = 16;
/// Lowest representable octave (2^MIN_OCTAVE).
const MIN_OCTAVE: i32 = -16;
/// Number of octaves covered.
const OCTAVES: usize = 64;
/// Total bucket count.
const BUCKETS: usize = OCTAVES * SUBDIV;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins measurement.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Raises the gauge to `v` if `v` exceeds the current value — a
    /// lock-free running maximum (e.g. peak buffer occupancy across
    /// concurrent workers). Non-finite `v` is ignored.
    pub fn set_max(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }
}

/// A log-bucketed histogram of non-negative values.
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            counts: counts.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Records one observation. Non-finite and negative values clamp into
    /// the lowest bucket.
    pub fn record(&self, v: f64) {
        let idx = Self::bucket_of(v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // CAS loop: contention here is rare (records are spread over time).
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v.max(0.0)).to_bits())
            });
    }

    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let pos = (v.log2() - MIN_OCTAVE as f64) * SUBDIV as f64;
        pos.floor().clamp(0.0, (BUCKETS - 1) as f64) as usize
    }

    /// Geometric midpoint of bucket `idx` — the value reported for
    /// quantiles landing in it.
    fn bucket_value(idx: usize) -> f64 {
        let exponent = MIN_OCTAVE as f64 + (idx as f64 + 0.5) / SUBDIV as f64;
        exponent.exp2()
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (negatives clamped to 0).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) with the bucketing's relative error
    /// (≈4.4%); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Self::bucket_value(idx));
            }
        }
        Some(Self::bucket_value(BUCKETS - 1))
    }

    /// Serializable summary of this histogram. An empty histogram reports
    /// `null` for mean and quantiles (matching the zero-epoch NaN-loss
    /// convention) rather than a misleading `0.0`.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                None
            } else {
                Some(sum / count as f64)
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Cumulative bucket counts at the upper edge of every *occupied*
    /// bucket, in ascending order — the Prometheus `_bucket{le=".."}`
    /// series. Empty buckets are skipped (the cumulative value at any
    /// omitted edge is recoverable from the previous entry), keeping the
    /// exposition proportional to the data rather than the 1024-slot
    /// backing array.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (idx, bucket) in self.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((Self::bucket_upper(idx), cumulative));
            }
        }
        out
    }

    /// Upper edge of bucket `idx`.
    fn bucket_upper(idx: usize) -> f64 {
        let exponent = MIN_OCTAVE as f64 + (idx as f64 + 1.0) / SUBDIV as f64;
        exponent.exp2()
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Arithmetic mean; `null` when no observations were recorded.
    pub mean: Option<f64>,
    /// Median (log-bucket resolution); `null` when empty.
    pub p50: Option<f64>,
    /// 95th percentile; `null` when empty.
    pub p95: Option<f64>,
    /// 99th percentile; `null` when empty.
    pub p99: Option<f64>,
}

/// The process-wide metrics registry.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

/// Read access to one metric map. A panic while holding a registry lock
/// cannot leave a map half-updated (every write is one `entry` or `clear`),
/// so poisoning is recovered.
fn read<T>(map: &RwLock<HashMap<String, Arc<T>>>) -> RwLockReadGuard<'_, HashMap<String, Arc<T>>> {
    map.read().unwrap_or_else(PoisonError::into_inner)
}

/// The metric named `name` in `map`, created on first use.
fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = read(map).get(name) {
        return Arc::clone(m);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Serializable snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// Drops every registered metric (test isolation).
    pub fn reset(&self) {
        fn clear<T>(map: &RwLock<HashMap<String, Arc<T>>>) {
            map.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
        clear(&self.counters);
        clear(&self.gauges);
        clear(&self.histograms);
    }
}

/// Snapshot of the whole registry, serializable for sinks and reports.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Shorthand for `registry().gauge(name)`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Shorthand for `registry().histogram(name)`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Maps a metric name onto the Prometheus identifier charset
/// (`[a-zA-Z0-9_:]`); everything else — notably the `.` separators of the
/// `<crate>.<phase>.<name>` convention — becomes `_`.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the whole registry as Prometheus text exposition format. Output
/// order is deterministic: counters, then gauges, then histograms, each
/// sorted by name (the registry snapshot is BTreeMap-backed).
pub fn prometheus_text() -> String {
    let reg = registry();
    let snap = reg.snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", format_value(*value)));
    }
    for name in snap.histograms.keys() {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        // Buckets come from the live histogram (the snapshot carries only
        // the quantile summary). The histogram may have gained samples
        // since the snapshot; `_count`/`_sum` are re-read alongside the
        // buckets so the series stays self-consistent.
        let h = reg.histogram(name);
        for (le, cumulative) in h.cumulative_buckets() {
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                format_value(le)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{n}_sum {}\n", format_value(h.sum())));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_is_deterministic() {
        registry().counter("obs.det.a").inc();
        registry().counter("obs.det.b").inc();
        assert_eq!(prometheus_text(), prometheus_text());
    }

    #[test]
    fn counters_count_and_gauges_hold_last() {
        let r = Registry::default();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x").get(), 5);
        let g = r.gauge("y");
        g.set(1.5);
        g.set(-2.0);
        assert_eq!(r.gauge("y").get(), -2.0);
    }

    #[test]
    fn gauge_set_max_is_a_running_maximum() {
        let g = Gauge::default();
        g.set_max(3.0);
        g.set_max(1.0);
        assert_eq!(g.get(), 3.0);
        g.set_max(7.5);
        assert_eq!(g.get(), 7.5);
        g.set_max(f64::NAN);
        g.set_max(f64::INFINITY);
        assert_eq!(g.get(), 7.5, "non-finite values must be ignored");
    }

    #[test]
    fn histogram_quantiles_hit_known_values() {
        let h = Histogram::default();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500_500.0).abs() < 1e-6);
    }

    #[test]
    fn extreme_and_invalid_values_clamp() {
        let h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(1e300);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.0).unwrap() > 0.0);
    }

    #[test]
    fn empty_histogram_summary_reports_null_not_zero() {
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, None);
        assert_eq!(s.p50, None);
        assert_eq!(s.p95, None);
        assert_eq!(s.p99, None);
        // And the nulls survive serialization — no spurious 0.0 in sinks.
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(json.contains("\"p50\":null"), "got {json}");
        assert!(!json.contains("\"p50\":0"), "got {json}");
    }

    #[test]
    fn snapshot_is_sorted_by_name_regardless_of_insertion_order() {
        let r = Registry::default();
        for name in ["zeta", "alpha", "mid", "beta"] {
            r.counter(name).inc();
            r.gauge(name).set(1.0);
            r.histogram(name).record(1.0);
        }
        let snap = r.snapshot();
        let counter_names: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = counter_names.clone();
        sorted.sort();
        assert_eq!(counter_names, sorted);
        let gauge_names: Vec<&String> = snap.gauges.keys().collect();
        let mut sorted = gauge_names.clone();
        sorted.sort();
        assert_eq!(gauge_names, sorted);
        let histogram_names: Vec<&String> = snap.histograms.keys().collect();
        let mut sorted = histogram_names.clone();
        sorted.sort();
        assert_eq!(histogram_names, sorted);
        // Byte-determinism: two snapshots of the same state serialize
        // identically.
        let a = serde_json::to_string(&snap).expect("serializes");
        let b = serde_json::to_string(&r.snapshot()).expect("serializes");
        assert_eq!(a, b);
    }

    #[test]
    fn cumulative_buckets_are_ascending_and_end_at_count() {
        let h = Histogram::default();
        for v in [1.0, 1.0, 10.0, 100.0, 1000.0] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "le edges ascend");
            assert!(pair[0].1 < pair[1].1, "cumulative counts ascend");
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
        // The first edge must sit at or above the smallest observation's
        // bucket: 1.0 lands in a bucket whose upper edge exceeds 1.0.
        assert!(buckets[0].0 > 1.0);
    }
}
