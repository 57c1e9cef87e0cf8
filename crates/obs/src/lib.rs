//! Runtime telemetry for the paris workspace.
//!
//! Everything here is built for the serving hot path: a [`Counter`] or
//! [`Gauge`] is one relaxed atomic, a [`Histogram`] is a fixed array of
//! atomic buckets — recording a sample is a handful of relaxed
//! `fetch_add`s with **zero allocation**, safe to call from every worker
//! thread concurrently. Aggregation (quantiles, Prometheus text, JSON)
//! happens only at scrape time, over a consistent-enough relaxed read of
//! the buckets.
//!
//! The [`Registry`] names the instruments: a metric is `(name, labels)`,
//! families carry a help string, and the whole registry renders as either
//! Prometheus text exposition (version 0.0.4) or a JSON document — the
//! two bodies `GET /v1/metrics` serves.
//!
//! [`span`] is the second half: structural timing. Where metrics
//! aggregate, spans form parent-linked trees per request/job/sync-cycle,
//! propagate across daemons via `traceparent` headers, and are retained
//! with tail-sampling so the slowest traces are always inspectable.
//!
//! [`series`] and [`flame`] are the analysis layer on top: bounded
//! per-iteration convergence series for long alignment runs, and
//! flame-profile aggregation that folds recorded spans into name-path
//! trees with self-time and per-path quantiles. The aligner reports
//! into spans and a series through one observer, `paris_core::Observe`
//! — the per-iteration rows the paper reports in its tables, made
//! visible while a long `POST /align` job still runs.

#![forbid(unsafe_code)]

pub mod flame;
pub mod series;
pub mod span;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// ----------------------------------------------------------------------
// Instruments
// ----------------------------------------------------------------------

/// A monotonically increasing event count. Cheap to clone through an
/// `Arc`; all updates are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A new counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement (resident bytes, generation, lag).
/// Unlike a [`Counter`] it can move both ways; the stored value is an
/// unsigned 64-bit quantity, which covers every gauge this workspace
/// exports.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A new gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values 0–3 exactly, then four log-linear
/// sub-buckets per power of two up to `2^32` (µs ≈ 71 minutes), plus a
/// final overflow bucket. The relative quantile error above 4 is bounded
/// by one sub-bucket: ≤ 25% of the value, typically ~12%.
pub const HISTOGRAM_BUCKETS: usize = 124;

/// The bucket a value lands in. Log-linear: exact below 4, then
/// `4·(msb−2) + 4 + top-two-mantissa-bits`; everything ≥ `2^32` is
/// clamped into the last bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (4 + (msb - 2) * 4 + sub).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive `(low, high)` value range of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 4 {
        return (idx as u64, idx as u64);
    }
    let octave = (idx - 4) / 4;
    let sub = ((idx - 4) % 4) as u64;
    let lo = (4 + sub) << octave;
    let hi = lo + (1u64 << octave) - 1;
    (lo, hi)
}

/// A fixed-bucket log-scale histogram of `u64` samples (the workspace
/// records **microseconds**). Recording is wait-free and allocation-free;
/// buckets are mergeable across threads and across histograms, and
/// p50/p90/p99/max are derived from the buckets at read time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A new, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds another histogram's buckets into this one (e.g. per-thread
    /// histograms merged into a global one). The other histogram may be
    /// concurrently written; the merge is then a consistent snapshot of
    /// *some* prefix of its updates.
    pub fn merge_from(&self, other: &Histogram) {
        let snap = other.snapshot();
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A plain (non-atomic) copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // `count` is read *first*: concurrent recorders bump buckets
        // before count, so the bucket total can only be ≥ the count we
        // report, never behind it — quantile walks always terminate.
        let count = self.count.load(Ordering::Acquire);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with derived statistics.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0 < q ≤ 1`), estimated as the upper bound of
    /// the bucket containing the `⌈q·count⌉`-th sample, capped at the
    /// recorded maximum. Zero when empty. Monotone in `q` by
    /// construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Adds another snapshot's buckets into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// What a registered metric is, for exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Sample {
    labels: Vec<(&'static str, String)>,
    handle: Handle,
}

struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Keyed by the rendered `{label="value",…}` suffix for determinism.
    samples: BTreeMap<String, Sample>,
}

/// Names the process's instruments and renders them. Registration takes
/// a write lock; it happens at startup and on first sight of a new label
/// value (a new pair, a new upstream), never per sample — the returned
/// `Arc` is the hot-path handle.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<&'static str, Family>>,
}

/// The `{a="b",c="d"}` suffix of a sample (empty string for no labels).
/// Label *values* are escaped per the Prometheus text format.
fn label_suffix(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let owned: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
        let key = label_suffix(&owned);
        let mut families = self.families.write().expect("obs registry poisoned");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind: MetricKind::Counter, // fixed up below on first insert
            samples: BTreeMap::new(),
        });
        if let Some(sample) = family.samples.get(&key) {
            assert_eq!(
                sample.handle.kind(),
                family.kind,
                "metric {name} registered with two kinds"
            );
            return sample.handle.clone();
        }
        let handle = make();
        if family.samples.is_empty() {
            family.kind = handle.kind();
        }
        assert_eq!(
            handle.kind(),
            family.kind,
            "metric {name} registered with two kinds"
        );
        family.samples.insert(
            key,
            Sample {
                labels: owned,
                handle: handle.clone(),
            },
        );
        handle
    }

    /// The counter `(name, labels)`, created on first use.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// The gauge `(name, labels)`, created on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Handle::Gauge(Arc::new(Gauge::new()))) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// The histogram `(name, labels)`, created on first use.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Registers an externally owned counter (e.g. one embedded in a
    /// subsystem that must not depend on a registry). A sample already
    /// registered under `(name, labels)` is left in place.
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        counter: &Arc<Counter>,
    ) {
        self.get_or_insert(name, help, labels, || Handle::Counter(Arc::clone(counter)));
    }

    /// Registers an externally owned gauge, like
    /// [`Registry::register_counter`].
    pub fn register_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        gauge: &Arc<Gauge>,
    ) {
        self.get_or_insert(name, help, labels, || Handle::Gauge(Arc::clone(gauge)));
    }

    /// The value of a registered counter, `None` when absent — test and
    /// CLI convenience, not a hot path.
    pub fn counter_value(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<u64> {
        let owned: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
        let key = label_suffix(&owned);
        let families = self.families.read().expect("obs registry poisoned");
        match &families.get(name)?.samples.get(&key)?.handle {
            Handle::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4). Histogram buckets are cumulative with `le` upper
    /// bounds in the recorded unit; empty buckets are elided (the
    /// cumulative counts stay correct without them).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.read().expect("obs registry poisoned");
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.label()));
            for sample in family.samples.values() {
                match &sample.handle {
                    Handle::Counter(c) => {
                        let suffix = label_suffix(&sample.labels);
                        out.push_str(&format!("{name}{suffix} {}\n", c.get()));
                    }
                    Handle::Gauge(g) => {
                        let suffix = label_suffix(&sample.labels);
                        out.push_str(&format!("{name}{suffix} {}\n", g.get()));
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            cumulative += n;
                            let mut labels = sample.labels.clone();
                            labels.push(("le", bucket_bounds(i).1.to_string()));
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                label_suffix(&labels)
                            ));
                        }
                        let mut labels = sample.labels.clone();
                        labels.push(("le", "+Inf".to_owned()));
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            label_suffix(&labels),
                            snap.count
                        ));
                        let suffix = label_suffix(&sample.labels);
                        out.push_str(&format!("{name}_sum{suffix} {}\n", snap.sum));
                        out.push_str(&format!("{name}_count{suffix} {}\n", snap.count));
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object:
    /// `{"counters":[…],"gauges":[…],"histograms":[…]}`, each entry
    /// `{"name":…,"labels":{…},…}`; histograms carry count/sum/max,
    /// derived p50/p90/p99, and the non-empty `[le, n]` bucket pairs.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let families = self.families.read().expect("obs registry poisoned");
        for (name, family) in families.iter() {
            for sample in family.samples.values() {
                let mut entry = String::from("{");
                entry.push_str(&format!("\"name\":{}", json_string(name)));
                entry.push_str(",\"labels\":{");
                for (i, (k, v)) in sample.labels.iter().enumerate() {
                    if i > 0 {
                        entry.push(',');
                    }
                    entry.push_str(&format!("{}:{}", json_string(k), json_string(v)));
                }
                entry.push('}');
                match &sample.handle {
                    Handle::Counter(c) => {
                        entry.push_str(&format!(",\"value\":{}", c.get()));
                        entry.push('}');
                        counters.push(entry);
                    }
                    Handle::Gauge(g) => {
                        entry.push_str(&format!(",\"value\":{}", g.get()));
                        entry.push('}');
                        gauges.push(entry);
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        entry.push_str(&format!(
                            ",\"count\":{},\"sum\":{},\"max\":{},\
                             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                            snap.count,
                            snap.sum,
                            snap.max,
                            snap.quantile(0.50),
                            snap.quantile(0.90),
                            snap.quantile(0.99),
                        ));
                        let mut first = true;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            if !first {
                                entry.push(',');
                            }
                            first = false;
                            entry.push_str(&format!("[{},{n}]", bucket_bounds(i).1));
                        }
                        entry.push_str("]}");
                        histograms.push(entry);
                    }
                }
            }
        }
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

/// A JSON string literal (quotes, backslashes, and control characters
/// escaped).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_roundtrip() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 123456] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
        // Buckets tile the range with no gaps or overlaps.
        let mut expected_lo = 0u64;
        for idx in 0..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            assert!(hi >= lo);
            expected_lo = hi + 1;
        }
        // Overflow clamps into the last bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let (p50, p90, p99) = (
            snap.quantile(0.50),
            snap.quantile(0.90),
            snap.quantile(0.99),
        );
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= snap.max);
        // Log-linear buckets: the estimate is within one sub-bucket
        // (≤ 25% relative) of the true quantile.
        assert!((400..=640).contains(&p50), "p50={p50}");
        assert!((850..=1000).contains(&p99), "p99={p99}");
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn merge_is_exact() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9, 100, 5000] {
            a.record(v);
        }
        for v in [2u64, 5, 77, 100000] {
            b.record(v);
        }
        let combined = Histogram::new();
        combined.merge_from(&a);
        combined.merge_from(&b);
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), combined.snapshot());
        assert_eq!(sc.count, sa.count + sb.count);
        assert_eq!(sc.sum, sa.sum + sb.sum);
        assert_eq!(sc.max, sa.max.max(sb.max));
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.buckets, sc.buckets);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (h, c) = (Arc::clone(&h), Arc::clone(&c));
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 97);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn registry_renders_both_formats() {
        let reg = Registry::new();
        reg.counter(
            "paris_requests_total",
            "Requests served.",
            &[("route", "sameas")],
        )
        .add(3);
        reg.gauge(
            "paris_pair_generation",
            "Pair generation.",
            &[("pair", "a")],
        )
        .set(7);
        let h = reg.histogram("paris_latency_us", "Latency (µs).", &[]);
        h.record(10);
        h.record(2000);

        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE paris_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("paris_requests_total{route=\"sameas\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("paris_pair_generation{pair=\"a\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("paris_latency_us_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("paris_latency_us_sum 2010"), "{text}");
        assert!(text.contains("paris_latency_us_count 2"), "{text}");

        let json = reg.render_json();
        assert!(json.contains("\"name\":\"paris_requests_total\""), "{json}");
        assert!(json.contains("\"route\":\"sameas\""), "{json}");
        assert!(json.contains("\"count\":2"), "{json}");

        // Re-requesting the same (name, labels) returns the same handle.
        reg.counter(
            "paris_requests_total",
            "Requests served.",
            &[("route", "sameas")],
        )
        .inc();
        assert_eq!(
            reg.counter_value("paris_requests_total", &[("route", "sameas")]),
            Some(4)
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("m", "h", &[("k", "a\"b\\c")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("m{k=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
