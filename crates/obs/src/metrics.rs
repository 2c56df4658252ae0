//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with an atomics-only hot path.
//!
//! A metric is identified by a **family name** plus an optional,
//! ordered label list (`("class", "bulk")`-style pairs). Registration
//! (`counter`, `gauge`, `histogram`, and their `_with` label variants)
//! takes one lock on a shard chosen by the family name's hash;
//! registering the same identity again returns a handle to the same
//! underlying cell, so handles can be re-derived anywhere without
//! coordination. The handles themselves ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`-backed, `Clone`, and update via single
//! atomic operations — no lock is ever taken after registration.
//!
//! [`MetricsRegistry::snapshot`] produces a [`MetricsSnapshot`]: a
//! plain, mergeable value type with a Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]) and a JSON form
//! ([`MetricsSnapshot::to_json`]). Merging adds counters, gauges and
//! histogram buckets element-wise, which is exactly associative (all
//! storage is `u64`, including histogram sums kept in nanoseconds), so
//! per-shard or per-process snapshots can be combined in any grouping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default latency histogram bounds in seconds: 100 µs to 10 s, a
/// 1-2.5-5 ladder. Chosen so micro-batch lingers (~ms) and full batch
/// solves (~tens of ms) both land mid-range.
pub const DEFAULT_LATENCY_BUCKETS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// How many independently locked registration shards a registry keeps.
/// Registration is rare, but sharding keeps concurrent first-touch
/// registration (e.g. per-class histograms created from worker
/// threads) from serialising on one mutex.
const SHARDS: usize = 8;

#[derive(Debug, Default)]
struct CounterCell(AtomicU64);

#[derive(Debug, Default)]
struct GaugeCell(AtomicU64);

#[derive(Debug)]
struct HistogramCell {
    /// Upper bucket bounds in seconds, strictly increasing; an
    /// implicit `+Inf` bucket follows the last bound.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket — `bounds.len() + 1`.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values in integer nanoseconds, so merges are
    /// exact and associative.
    sum_nanos: AtomicU64,
}

#[derive(Debug, Clone)]
enum MetricCell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// A metric's identity: `(family name, rendered label pairs)`. The
/// label component is the canonical `k="v",k2="v2"` rendering (empty
/// for unlabelled metrics), which makes the `BTreeMap` order the
/// exposition order for free.
type MetricId = (String, String);

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, &mut out);
        out.push('"');
    }
    out
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Applied at registration, so the canonical metric identity *is* the
/// escaped rendering — exposition (text and JSON alike) can simply emit
/// it verbatim, and two values that differ only in escaping cannot
/// silently produce invalid exposition lines.
fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Stable FNV-1a so shard choice does not depend on the process's
/// `RandomState`.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// A monotonically increasing counter handle. `Clone` is cheap; the
/// [`Default`] handle is a no-op (every operation does nothing,
/// `get` reads 0), which is the "telemetry disabled" representation.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A detached handle whose operations all do nothing.
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.0.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a value that can move both ways. Decrements are
/// **monotone-safe**: [`Gauge::sub`] saturates at zero (and
/// `debug_assert`s on underflow) so a racing or double free can never
/// wrap the gauge to ~2⁶⁴ — the failure mode the engine's
/// `arena_bytes_live` accounting guards against.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A detached handle whose operations all do nothing.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adds `n`, returning the updated value (0 for a no-op handle) —
    /// the post-add reading a caller needs to maintain an exact
    /// high-water mark against a concurrently moving gauge.
    pub fn add(&self, n: u64) -> u64 {
        match &self.cell {
            Some(cell) => cell.0.fetch_add(n, Ordering::Relaxed) + n,
            None => 0,
        }
    }

    /// Subtracts `n`, saturating at zero. Underflow trips a
    /// `debug_assert` — in release builds the gauge clamps instead of
    /// wrapping.
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            let prev = cell
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)))
                .expect("fetch_update closure always returns Some");
            debug_assert!(prev >= n, "gauge underflow: {prev} - {n}");
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle for latency-like observations in
/// seconds. Observation is two atomic adds (bucket + sum).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A detached handle whose operations all do nothing.
    pub fn noop() -> Self {
        Histogram { cell: None }
    }

    /// Records one observation of `seconds` (negative values clamp to
    /// zero).
    pub fn observe(&self, seconds: f64) {
        if let Some(cell) = &self.cell {
            let v = seconds.max(0.0);
            let idx = cell.bounds.iter().position(|&b| v <= b).unwrap_or(cell.bounds.len());
            cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            cell.sum_nanos.fetch_add((v * 1e9).round() as u64, Ordering::Relaxed);
        }
    }

    /// Records one observation of a wall-clock duration.
    pub fn observe_duration(&self, d: Duration) {
        if let Some(cell) = &self.cell {
            let idx = {
                let v = d.as_secs_f64();
                cell.bounds.iter().position(|&b| v <= b).unwrap_or(cell.bounds.len())
            };
            cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            cell.sum_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Total observations so far (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum())
    }
}

struct Shard {
    metrics: Mutex<BTreeMap<MetricId, MetricCell>>,
}

/// The registry: where metric handles are born and snapshots are
/// taken. See the [module docs](self) for the locking story.
///
/// A registry is either live ([`MetricsRegistry::new`]) or disabled
/// ([`MetricsRegistry::disabled`]): a disabled registry hands out
/// no-op handles and snapshots empty, so "telemetry off" costs one
/// branch per metric operation and nothing else.
pub struct MetricsRegistry {
    enabled: bool,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A live registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            shards: (0..SHARDS).map(|_| Shard { metrics: Mutex::new(BTreeMap::new()) }).collect(),
        }
    }

    /// A disabled registry: every handle it returns is a no-op and
    /// [`MetricsRegistry::snapshot`] is empty.
    pub fn disabled() -> Self {
        MetricsRegistry { enabled: false, shards: Vec::new() }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn entry(&self, name: &str, labels: &[(&str, &str)]) -> Option<(MetricId, &Shard)> {
        if !self.enabled {
            return None;
        }
        let id = (name.to_string(), render_labels(labels));
        let shard = &self.shards[shard_of(name)];
        Some((id, shard))
    }

    /// An unlabelled counter (get-or-register).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A labelled counter (get-or-register). Labels must be applied in
    /// a consistent order: the identity is the rendered label string.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some((id, shard)) = self.entry(name, labels) else { return Counter::noop() };
        let mut metrics = shard.metrics.lock().expect("metrics shard poisoned");
        let cell = metrics
            .entry(id)
            .or_insert_with(|| MetricCell::Counter(Arc::new(CounterCell::default())));
        match cell {
            MetricCell::Counter(c) => Counter { cell: Some(Arc::clone(c)) },
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// An unlabelled gauge (get-or-register).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// A labelled gauge (get-or-register).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some((id, shard)) = self.entry(name, labels) else { return Gauge::noop() };
        let mut metrics = shard.metrics.lock().expect("metrics shard poisoned");
        let cell =
            metrics.entry(id).or_insert_with(|| MetricCell::Gauge(Arc::new(GaugeCell::default())));
        match cell {
            MetricCell::Gauge(g) => Gauge { cell: Some(Arc::clone(g)) },
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// An unlabelled histogram with the given upper bucket bounds in
    /// seconds (strictly increasing; an `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// A labelled histogram (get-or-register). Re-registration must
    /// use the same bounds.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must be increasing");
        let Some((id, shard)) = self.entry(name, labels) else { return Histogram::noop() };
        let mut metrics = shard.metrics.lock().expect("metrics shard poisoned");
        let cell = metrics.entry(id).or_insert_with(|| {
            MetricCell::Histogram(Arc::new(HistogramCell {
                bounds: bounds.to_vec(),
                buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum_nanos: AtomicU64::new(0),
            }))
        });
        match cell {
            MetricCell::Histogram(h) => {
                assert_eq!(h.bounds, bounds, "metric {name:?} re-registered with other bounds");
                Histogram { cell: Some(Arc::clone(h)) }
            }
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every metric. Concurrent writers keep
    /// writing; each individual value is read atomically and counts
    /// only ever grow, so any snapshot is a consistent lower bound and
    /// a quiescent snapshot is exact.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let metrics = shard.metrics.lock().expect("metrics shard poisoned");
            for (id, cell) in metrics.iter() {
                match cell {
                    MetricCell::Counter(c) => {
                        snap.counters.insert(id.clone(), c.0.load(Ordering::Relaxed));
                    }
                    MetricCell::Gauge(g) => {
                        snap.gauges.insert(id.clone(), g.0.load(Ordering::Relaxed));
                    }
                    MetricCell::Histogram(h) => {
                        snap.histograms.insert(
                            id.clone(),
                            HistogramSnapshot {
                                bounds: h.bounds.clone(),
                                buckets: h
                                    .buckets
                                    .iter()
                                    .map(|b| b.load(Ordering::Relaxed))
                                    .collect(),
                                sum_nanos: h.sum_nanos.load(Ordering::Relaxed),
                            },
                        );
                    }
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds in seconds (the `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries (last = overflow).
    pub buckets: Vec<u64>,
    /// Exact sum of observations in nanoseconds.
    pub sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Total observations. Derived from the buckets so a snapshot is
    /// internally consistent even when taken mid-write.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Adds another snapshot of the same histogram bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "merging histograms with different bounds");
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum_nanos += other.sum_nanos;
    }

    /// Subtracts an earlier snapshot of the same histogram bucket-wise
    /// (saturating, so a racing reset can never wrap), yielding the
    /// observations that happened *between* the two — the delta a
    /// rolling-window aggregator stores per tick.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, earlier.bounds, "delta of histograms with different bounds");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the recorded observations,
    /// **linearly interpolated inside the bucket** the target rank
    /// falls into (the `histogram_quantile` estimator): the first
    /// bucket interpolates from a lower bound of zero, and a rank
    /// landing in the `+Inf` overflow bucket clamps to the last finite
    /// bound — the histogram cannot say more. `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * count as f64;
        let mut cumulative = 0u64;
        for (i, (&bucket_count, &upper)) in self.buckets.iter().zip(&self.bounds).enumerate() {
            let before = cumulative;
            cumulative += bucket_count;
            if (cumulative as f64) >= target {
                if bucket_count == 0 {
                    return Some(upper);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let fraction = (target - before as f64) / bucket_count as f64;
                return Some(lower + (upper - lower) * fraction.clamp(0.0, 1.0));
            }
        }
        // The rank lands in the overflow bucket: report the last finite
        // bound (or 0.0 for a boundless histogram) rather than invent a
        // value past what was measured.
        Some(self.bounds.last().copied().unwrap_or(0.0))
    }
}

/// A mergeable point-in-time copy of a whole registry, keyed by
/// `(family name, rendered labels)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<MetricId, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<MetricId, u64>,
    /// Histogram states.
    pub histograms: BTreeMap<MetricId, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Adds `other` into `self`: counters and histogram buckets add
    /// exactly; gauges add too (the merged value of a sharded gauge —
    /// e.g. live bytes per shard — is the sum). All storage is `u64`,
    /// so merging is associative and commutative.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (id, v) in &other.counters {
            *self.counters.entry(id.clone()).or_insert(0) += v;
        }
        for (id, v) in &other.gauges {
            *self.gauges.entry(id.clone()).or_insert(0) += v;
        }
        for (id, h) in &other.histograms {
            match self.histograms.get_mut(id) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(id.clone(), h.clone());
                }
            }
        }
    }

    /// Subtracts an `earlier` snapshot of the same registry, yielding
    /// what happened **between** the two: counters and histogram
    /// buckets subtract (saturating — a family absent earlier counts
    /// from zero), while gauges keep their *current* value (a gauge is
    /// a level, not a flow; "the delta of a queue depth" is not a
    /// meaningful windowed quantity, the latest reading is). This is
    /// the per-tick record a rolling-window aggregator keeps; deltas
    /// re-[`merge`](Self::merge) associatively back into any window.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = MetricsSnapshot::default();
        for (id, v) in &self.counters {
            let before = earlier.counters.get(id).copied().unwrap_or(0);
            delta.counters.insert(id.clone(), v.saturating_sub(before));
        }
        delta.gauges = self.gauges.clone();
        for (id, h) in &self.histograms {
            match earlier.histograms.get(id) {
                Some(then) => {
                    delta.histograms.insert(id.clone(), h.delta_since(then));
                }
                None => {
                    delta.histograms.insert(id.clone(), h.clone());
                }
            }
        }
        delta
    }

    /// The `q`-quantile of a histogram family under the given labels,
    /// bucket-interpolated (see [`HistogramSnapshot::quantile`]).
    /// `None` when the family/label set is absent or empty. Labels must
    /// be passed in the same order they were registered with.
    pub fn quantile(&self, family: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.histograms.get(&(family.to_string(), render_labels(labels)))?.quantile(q)
    }

    /// Convenience: the value of an unlabelled counter, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(&(name.to_string(), String::new())).copied().unwrap_or(0)
    }

    /// Convenience: the value of an unlabelled gauge, 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(&(name.to_string(), String::new())).copied().unwrap_or(0)
    }

    /// Sum of a labelled counter family over all label sets.
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters.iter().filter(|((n, _), _)| n == name).map(|(_, v)| v).sum()
    }

    fn family_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Prometheus text exposition: one `# TYPE` line per family, then
    /// one sample line per label set (histograms expand to cumulative
    /// `_bucket` series plus `_sum`/`_count`). Families are sorted by
    /// name, label sets lexicographically — the output is a pure
    /// function of the snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for name in self.family_names() {
            if self.counters.keys().any(|(n, _)| n == name) {
                out.push_str(&format!("# TYPE {name} counter\n"));
                for ((_, labels), v) in self.counters.iter().filter(|((n, _), _)| n == name) {
                    if labels.is_empty() {
                        out.push_str(&format!("{name} {v}\n"));
                    } else {
                        out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                    }
                }
            } else if self.gauges.keys().any(|(n, _)| n == name) {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                for ((_, labels), v) in self.gauges.iter().filter(|((n, _), _)| n == name) {
                    if labels.is_empty() {
                        out.push_str(&format!("{name} {v}\n"));
                    } else {
                        out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                    }
                }
            } else {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                for ((_, labels), h) in self.histograms.iter().filter(|((n, _), _)| n == name) {
                    let prefix =
                        if labels.is_empty() { String::new() } else { format!("{labels},") };
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                        cumulative += count;
                        out.push_str(&format!(
                            "{name}_bucket{{{prefix}le=\"{bound}\"}} {cumulative}\n"
                        ));
                    }
                    cumulative += h.buckets.last().copied().unwrap_or(0);
                    out.push_str(&format!("{name}_bucket{{{prefix}le=\"+Inf\"}} {cumulative}\n"));
                    let suffix =
                        if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
                    out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum_seconds()));
                    out.push_str(&format!("{name}_count{suffix} {cumulative}\n"));
                }
            }
        }
        out
    }

    /// A JSON object with `counters`, `gauges` and `histograms` maps,
    /// keyed by `name` or `name{labels}`.
    pub fn to_json(&self) -> String {
        fn key(id: &MetricId) -> String {
            let (name, labels) = id;
            if labels.is_empty() {
                json_escape(name)
            } else {
                json_escape(&format!("{name}{{{labels}}}"))
            }
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{}\": {v}", key(id)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{}\": {v}", key(id)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let bounds: Vec<String> = h.bounds.iter().map(f64::to_string).collect();
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    \"{}\": {{\"bounds\": [{}], \"buckets\": [{}], \"count\": {}, \"sum_seconds\": {}}}",
                key(id),
                bounds.join(", "),
                buckets.join(", "),
                h.count(),
                h.sum_seconds()
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
