//! Counters, log-linear latency histograms, and the metrics registry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can move both ways (queue depths, in-flight
/// request counts) — where [`Counter`] only accumulates.
#[derive(Debug, Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the level.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements the level.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// bounding the relative quantization error at 1/16 = 6.25 %.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range at that resolution.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Index of the log-linear bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64;
        let mantissa = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
        (((exp - SUB_BITS as u64 + 1) << SUB_BITS) + mantissa) as usize
    }
}

/// Largest value mapping to bucket `index` (the reported quantile value).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        index as u64
    } else {
        let exp = (index as u64 >> SUB_BITS) + SUB_BITS as u64 - 1;
        let mantissa = index as u64 & (SUB - 1);
        let lower = (SUB + mantissa) << (exp - SUB_BITS as u64);
        // `lower - 1 + width` rather than `lower + width - 1`: the top
        // bucket's upper bound is exactly `u64::MAX` and must not overflow.
        (lower - 1) + (1u64 << (exp - SUB_BITS as u64))
    }
}

/// A thread-safe log-linear (HDR-style) histogram of `u64` samples
/// (microseconds, by convention).
///
/// Values land in one of `BUCKETS` atomic buckets — exact below 16, then
/// 16 linear sub-buckets per power of two — so recording is two atomic adds
/// and quantiles come back within 6.25 % of the exact sorted quantile.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX => 0,
            v => v,
        }
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum() / n,
        }
    }

    /// The nearest-rank `p`-th percentile (`0.0 ..= 100.0`), within one
    /// log-linear bucket of the exact sorted quantile. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Report the bucket's upper bound, clamped to the observed
                // extremes so p0/p100 stay exact.
                return bucket_upper(index)
                    .min(self.max.load(Ordering::Relaxed))
                    .max(self.min());
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Point-in-time summary for export.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }
}

/// A frozen histogram summary (one registry snapshot row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A thread-safe registry of named counters and histograms.
///
/// Names are dotted paths (`"static.query_us"`); [`MetricsRegistry::counter`]
/// and [`MetricsRegistry::histogram`] get-or-create, so instruments can be
/// resolved once and then updated lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, if any — a read that never
    /// creates (dashboards poll per-query names that may not exist yet).
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.histograms.read().get(name).map(Arc::clone)
    }

    /// Drops the histogram registered under `name`; returns whether it
    /// existed. For per-entity instruments whose entity is gone — holders
    /// of the `Arc` keep a detached histogram that no snapshot reports.
    pub fn remove_histogram(&self, name: &str) -> bool {
        self.histograms.write().remove(name).is_some()
    }

    /// Point-in-time snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A frozen registry snapshot, exportable as JSON or Prometheus text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter rows, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauge rows, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` histogram rows, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram summary named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the build has no
    /// serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_string(name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50,
                s.p95,
                s.p99
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters as `counter` metrics, gauges as `gauge` metrics, histograms
    /// as `summary` metrics with `quantile` labels plus `_sum`/`_count`
    /// rows. Dotted names are sanitized (`static.query_us` →
    /// `static_query_us`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, s) in &self.histograms {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", s.sum);
            let _ = writeln!(out, "{name}_count {}", s.count);
        }
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Maps a registry name onto the Prometheus metric-name alphabet
/// `[a-zA-Z0-9_:]`, prefixing a digit-initial name with `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' || (c.is_ascii_digit() && i > 0) {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank percentile over a sorted copy of `samples`.
    fn exact_percentile(samples: &[u64], p: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// The histogram's quantization bound: one sub-bucket of relative error
    /// (1/16), plus 1 for integer rounding at small values.
    fn within_bucket_error(approx: u64, exact: u64) -> bool {
        let tolerance = exact / (SUB - 1) + 1;
        approx >= exact.saturating_sub(tolerance) && approx <= exact + tolerance
    }

    #[test]
    fn find_reads_without_creating_and_remove_drops() {
        let registry = MetricsRegistry::new();
        assert!(registry.find_histogram("tick.q1.us").is_none());
        assert!(registry.snapshot().histograms.is_empty(), "find created");
        let held = registry.histogram("tick.q1.us");
        held.record(7);
        assert_eq!(registry.find_histogram("tick.q1.us").unwrap().count(), 1);
        assert!(registry.remove_histogram("tick.q1.us"));
        assert!(!registry.remove_histogram("tick.q1.us"));
        assert!(registry.snapshot().histograms.is_empty());
        // A holder of the old `Arc` records into a detached histogram.
        held.record(9);
        assert!(registry.find_histogram("tick.q1.us").is_none());
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0usize;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket index regressed at {v}");
            assert!(v <= bucket_upper(b), "{v} above its bucket's upper bound");
            last = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_match_exact_quantiles_on_fixed_samples() {
        let samples: Vec<u64> = (1..=1000).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let exact = exact_percentile(&samples, p);
            let approx = h.percentile(p);
            assert!(
                within_bucket_error(approx, exact),
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn skewed_tail_is_resolved() {
        let h = Histogram::new();
        // 99 fast queries and one slow outlier.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(within_bucket_error(h.p50(), 100));
        assert!(within_bucket_error(h.p95(), 100));
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.max(), 7999);
    }

    proptest! {
        #[test]
        fn percentiles_track_exact_quantiles(
            samples in proptest::collection::vec(0u64..10_000_000, 1..400),
            p in 0.0f64..100.0,
        ) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let exact = exact_percentile(&samples, p);
            let approx = h.percentile(p);
            prop_assert!(
                within_bucket_error(approx, exact),
                "p{}: approx {} vs exact {} over {} samples",
                p, approx, exact, samples.len()
            );
        }
    }

    #[test]
    fn registry_get_or_create_shares_instruments() {
        let registry = MetricsRegistry::new();
        registry.counter("queries").inc();
        registry.counter("queries").add(2);
        assert_eq!(registry.counter("queries").get(), 3);
        registry.histogram("latency_us").record(10);
        registry.histogram("latency_us").record(20);
        assert_eq!(registry.histogram("latency_us").count(), 2);
    }

    #[test]
    fn gauge_tracks_level_not_total() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("server.queue_depth");
        g.add(5);
        g.dec();
        registry.gauge("server.queue_depth").inc();
        assert_eq!(g.get(), 5);
        g.set(-2);
        assert_eq!(registry.snapshot().gauge("server.queue_depth"), Some(-2));
    }

    #[test]
    fn snapshot_exports_json_and_prometheus() {
        let registry = MetricsRegistry::new();
        registry.counter("static.queries").add(42);
        registry.gauge("server.queue_depth").set(7);
        let h = registry.histogram("static.query_us");
        for v in [100, 200, 300] {
            h.record(v);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("static.queries"), Some(42));
        assert_eq!(snap.histogram("static.query_us").unwrap().count, 3);

        let json = snap.to_json();
        assert!(json.contains("\"static.queries\":42"), "{json}");
        assert!(json.contains("\"server.queue_depth\":7"), "{json}");
        assert!(json.contains("\"static.query_us\":{\"count\":3"), "{json}");

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE static_queries counter"), "{prom}");
        assert!(prom.contains("static_queries 42"), "{prom}");
        assert!(prom.contains("# TYPE server_queue_depth gauge"), "{prom}");
        assert!(prom.contains("server_queue_depth 7"), "{prom}");
        assert!(prom.contains("# TYPE static_query_us summary"), "{prom}");
        assert!(prom.contains("static_query_us{quantile=\"0.5\"}"), "{prom}");
        assert!(prom.contains("static_query_us_count 3"), "{prom}");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("static.query_us"), "static_query_us");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
    }
}
