//! Live metrics plane: a lock-light telemetry registry sampled *while* a
//! job runs, complementing the post-hoc [`crate::metrics`] /
//! [`crate::trace`] layers.
//!
//! Three instrument kinds, all readable concurrently with writers:
//!
//! * [`Counter`] — a monotonic `AtomicU64` (tasks claimed, shuffle bytes);
//! * [`Gauge`] — a signed `AtomicI64` level (queue depth, records in
//!   flight);
//! * [`LiveHistogram`] — a fixed-size log-linear bucket array with bounded
//!   relative error (task durations), mergeable and quantile-queryable via
//!   its [`HistogramData`] snapshots.
//!
//! The record path is one `Option` check plus one atomic RMW — no locks, no
//! allocation. A handle from a *disabled* registry holds `None` and its
//! record calls compile to a single branch, so instrumented code pays
//! nothing when telemetry is off (the same idiom as
//! [`crate::trace::TraceCollector`]).
//!
//! [`TelemetrySnapshot`] renders the registry either as Prometheus text
//! exposition (served by [`crate::http::LiveServer`]) or as a
//! `minispark/telemetry-snapshot/v1` JSON document. The [`Heartbeat`]
//! sampler snapshots the registry on a background thread at a fixed
//! interval into an in-memory `minispark/heartbeat/v1` time series.

#![warn(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Schema identifier of [`TelemetrySnapshot::to_json`] documents.
pub const SNAPSHOT_SCHEMA: &str = "minispark/telemetry-snapshot/v1";
/// Schema identifier of [`Heartbeat::document`] time series.
pub const HEARTBEAT_SCHEMA: &str = "minispark/heartbeat/v1";

// ---------------------------------------------------------------------------
// Log-linear bucket scheme
// ---------------------------------------------------------------------------

/// Values below this are their own bucket (exact region).
pub const EXACT_LIMIT: usize = 32;
/// Sub-buckets per power of two above the exact region.
pub const SUB_BUCKETS: usize = 16;
/// Total bucket count: 32 exact + 59 exponent rows (2^5 … 2^63) × 16.
pub const NUM_BUCKETS: usize = EXACT_LIMIT + 59 * SUB_BUCKETS;

/// Bucket index of `v`: identity below [`EXACT_LIMIT`], then 16 log-linear
/// sub-buckets per power of two — relative bucket width ≤ 1/16.
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT as u64 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "v < EXACT_LIMIT, a usize, is checked on the line above"
        )]
        return v as usize;
    }
    // v ≥ 32 ⇒ exp ∈ [5, 63].
    let exp = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (exp - 4)) & 15) as usize;
    EXACT_LIMIT + (exp - 5) * SUB_BUCKETS + sub
}

/// Smallest value mapped to `index` (inverse of [`bucket_index`]).
pub fn bucket_lower(index: usize) -> u64 {
    if index < EXACT_LIMIT {
        return index as u64;
    }
    let row = (index - EXACT_LIMIT) / SUB_BUCKETS;
    let sub = (index - EXACT_LIMIT) % SUB_BUCKETS;
    ((SUB_BUCKETS + sub) as u64) << (row + 1)
}

/// Largest value mapped to `index`.
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// Midpoint representative of `index` — what quantile queries report.
/// Exact for the identity region, within half a bucket width (≤ 1/32
/// relative) above it.
pub fn bucket_representative(index: usize) -> u64 {
    let lo = bucket_lower(index);
    lo + (bucket_upper(index) - lo) / 2
}

// ---------------------------------------------------------------------------
// Cells (shared atomic state behind the handles)
// ---------------------------------------------------------------------------

/// Atomic bucket array of one live histogram. Preallocated at registration
/// so the record path never allocates.
struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let idx = bucket_index(v);
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_index < NUM_BUCKETS by construction; buckets has NUM_BUCKETS cells"
        )]
        // relaxed(counter): independent statistic cells; concurrent samplers
        // tolerate torn cross-cell totals (count may briefly lead buckets).
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // relaxed(counter): same independent-statistic argument as above.
        self.count.fetch_add(1, Ordering::Relaxed);
        // relaxed(counter): same independent-statistic argument as above.
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Cold path (sampler / endpoint): Acquire loads, no tags needed.
    fn data(&self) -> HistogramData {
        let mut buckets = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Acquire);
            if n > 0 {
                buckets.push((idx, n));
            }
        }
        HistogramData {
            buckets,
            count: self.count.load(Ordering::Acquire),
            sum: self.sum.load(Ordering::Acquire),
        }
    }

    /// Cold path (epoch reset): stronger-than-needed stores, no tags needed.
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::SeqCst);
        }
        self.count.store(0, Ordering::SeqCst);
        self.sum.store(0, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonic counter handle. `None` cell = disabled (no-op, no allocation).
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A permanently disabled counter (the no-op path).
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Whether records actually land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            // relaxed(counter): monotonic statistic; concurrent samplers
            // tolerate torn cross-counter totals.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds a `usize` amount (saturating into the `u64` domain).
    #[inline]
    pub fn add_usize(&self, n: usize) {
        self.add(u64::try_from(n).unwrap_or(u64::MAX));
    }

    /// Current value (0 when disabled). Cold path, Acquire load.
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Acquire))
    }
}

/// Signed level gauge handle (queue depth, in-flight records).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A permanently disabled gauge (the no-op path).
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Whether records actually land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.cell {
            // relaxed(counter): independent level statistic; samplers
            // tolerate momentarily torn levels.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises the level by a `usize` amount (saturating).
    #[inline]
    pub fn add_usize(&self, n: usize) {
        self.add(i64::try_from(n).unwrap_or(i64::MAX));
    }

    /// Lowers the level by a `usize` amount (saturating).
    #[inline]
    pub fn sub_usize(&self, n: usize) {
        self.add(-i64::try_from(n).unwrap_or(i64::MAX));
    }

    /// Lowers the level by 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level (0 when disabled). Cold path, Acquire load.
    pub fn get(&self) -> i64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Acquire))
    }
}

/// Live histogram handle over the fixed log-linear bucket array.
#[derive(Clone, Default)]
pub struct LiveHistogram {
    cell: Option<Arc<HistogramCell>>,
}

impl LiveHistogram {
    /// A permanently disabled histogram (the no-op path).
    pub fn disabled() -> Self {
        Self { cell: None }
    }

    /// Whether records actually land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Snapshot of the current bucket contents (empty when disabled).
    pub fn data(&self) -> HistogramData {
        self.cell
            .as_ref()
            .map_or_else(HistogramData::default, |cell| cell.data())
    }
}

// ---------------------------------------------------------------------------
// Histogram snapshots: merge, quantiles, JSON
// ---------------------------------------------------------------------------

/// Immutable snapshot of one histogram: sparse `(bucket index, count)`
/// pairs sorted by index, plus total count and sum of raw values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramData {
    /// Non-empty buckets, sorted by bucket index.
    pub buckets: Vec<(usize, u64)>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramData {
    /// Element-wise merge of another snapshot into this one (bucket counts
    /// add; quantiles of the merge bracket the pooled data).
    pub fn merge(&mut self, other: &HistogramData) {
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na.saturating_add(nb)));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count = self.count.saturating_add(other.count);
        // Wrapping, not saturating: the live cell accumulates `sum` with
        // atomic fetch_add (mod 2^64), so merging two snapshots must agree
        // with having recorded the pooled values into one cell.
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Nearest-rank quantile (`q` clamped to `[0, 1]`): the representative
    /// value of the bucket holding the rank-⌈q·count⌉ element. `None` when
    /// empty. Bounded error: the true element lies within the returned
    /// bucket, whose relative width is ≤ 1/16.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            reason = "count < 2^53 and q ∈ [0,1]; nearest-rank tolerates f64 rounding"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_representative(idx));
            }
        }
        // count is the sum of bucket counts, so the walk always returns.
        self.buckets
            .last()
            .map(|&(idx, _)| bucket_representative(idx))
    }

    /// Mean of recorded values (`None` when empty).
    #[expect(
        clippy::cast_precision_loss,
        reason = "ns-scale sums stay below 2^53; f64 rounding is fine for a mean"
    )]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// JSON encoding: `{"count": …, "sum": …, "buckets": [[index, n], …]}`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|&(idx, n)| Json::Arr(vec![Json::num_usize(idx), Json::num_u64(n)]))
            .collect();
        Json::obj()
            .with("count", Json::num_u64(self.count))
            .with("sum", Json::num_u64(self.sum))
            .with("buckets", Json::Arr(buckets))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum CellRef {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCell>),
}

struct MetricEntry {
    name: String,
    labels: Vec<(String, String)>,
    cell: CellRef,
}

struct RegistryInner {
    epoch: AtomicU64,
    entries: Mutex<Vec<MetricEntry>>,
}

/// The live metrics registry: hands out [`Counter`]/[`Gauge`]/
/// [`LiveHistogram`] handles keyed by `(name, labels)`, snapshots them all
/// at once, and resets them between runs (bumping an epoch so samplers can
/// tell run boundaries apart).
///
/// Cloning shares the registry (an `Arc` inside). A registry created with
/// [`TelemetryRegistry::disabled`] hands out no-op handles and snapshots
/// empty — instrumented code needs no `if`s.
#[derive(Clone)]
pub struct TelemetryRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl TelemetryRegistry {
    /// A live registry.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                epoch: AtomicU64::new(0),
                entries: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A no-op registry: every handle it hands out is disabled.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current reset epoch (0 when disabled or never reset).
    pub fn epoch(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.epoch.load(Ordering::Acquire))
    }

    fn entry<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        find: impl Fn(&CellRef) -> Option<T>,
        make: impl Fn() -> (CellRef, T),
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let mut entries = inner.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for entry in entries.iter() {
            if entry.name == name
                && entry.labels.len() == labels.len()
                && entry
                    .labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
            {
                if let Some(found) = find(&entry.cell) {
                    return Some(found);
                }
            }
        }
        let (cell, handle) = make();
        entries.push(MetricEntry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell,
        });
        Some(handle)
    }

    /// Counter handle for `name` with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter handle for `(name, labels)`; repeated calls share one cell.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.entry(
            name,
            labels,
            |cell| match cell {
                CellRef::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(AtomicU64::new(0));
                (CellRef::Counter(Arc::clone(&c)), c)
            },
        );
        Counter { cell }
    }

    /// Gauge handle for `name` with no labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gauge handle for `(name, labels)`; repeated calls share one cell.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.entry(
            name,
            labels,
            |cell| match cell {
                CellRef::Gauge(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(AtomicI64::new(0));
                (CellRef::Gauge(Arc::clone(&c)), c)
            },
        );
        Gauge { cell }
    }

    /// Histogram handle for `name` with no labels.
    pub fn histogram(&self, name: &str) -> LiveHistogram {
        self.histogram_with(name, &[])
    }

    /// Histogram handle for `(name, labels)`; repeated calls share one cell.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> LiveHistogram {
        let cell = self.entry(
            name,
            labels,
            |cell| match cell {
                CellRef::Histogram(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(HistogramCell::new());
                (CellRef::Histogram(Arc::clone(&c)), c)
            },
        );
        LiveHistogram { cell }
    }

    /// Zeroes every registered cell and bumps the epoch — the run boundary
    /// for back-to-back jobs on one cluster. Existing handles stay valid.
    pub fn reset(&self) {
        let Some(inner) = &self.inner else { return };
        let entries = inner.entries.lock().unwrap_or_else(PoisonError::into_inner);
        inner.epoch.fetch_add(1, Ordering::SeqCst);
        for entry in entries.iter() {
            match &entry.cell {
                CellRef::Counter(c) => c.store(0, Ordering::SeqCst),
                CellRef::Gauge(c) => c.store(0, Ordering::SeqCst),
                CellRef::Histogram(c) => c.reset(),
            }
        }
    }

    /// Consistent-enough point-in-time view of every metric (values are
    /// loaded per cell; cross-cell skew is bounded by in-flight records).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot {
                epoch: 0,
                metrics: Vec::new(),
            };
        };
        let entries = inner.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let metrics = entries
            .iter()
            .map(|entry| MetricSample {
                name: entry.name.clone(),
                labels: entry.labels.clone(),
                value: match &entry.cell {
                    CellRef::Counter(c) => SampleValue::Counter(c.load(Ordering::Acquire)),
                    CellRef::Gauge(c) => SampleValue::Gauge(c.load(Ordering::Acquire)),
                    CellRef::Histogram(c) => SampleValue::Histogram(c.data()),
                },
            })
            .collect();
        TelemetrySnapshot {
            epoch: inner.epoch.load(Ordering::Acquire),
            metrics,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots and exposition
// ---------------------------------------------------------------------------

/// One sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Signed gauge level.
    Gauge(i64),
    /// Histogram bucket snapshot.
    Histogram(HistogramData),
}

/// One metric in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (Prometheus-style, e.g. `minispark_tasks_claimed_total`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Sampled value.
    pub value: SampleValue,
}

impl MetricSample {
    /// `name{k="v",…}` — the Prometheus series identity.
    pub fn series(&self) -> String {
        let mut out = self.name.clone();
        push_label_set(&mut out, &self.labels, &[]);
        out
    }
}

fn push_label_set(out: &mut String, labels: &[(String, String)], extra: &[(&str, &str)]) {
    if labels.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// Point-in-time view of the whole registry.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Registry reset epoch at sampling time.
    pub epoch: u64,
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    /// First metric with `name` (tests and samplers).
    pub fn find(&self, name: &str) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prometheus text exposition (format version 0.0.4): `# TYPE` lines,
    /// one sample line per series, histograms as cumulative `_bucket{le=…}`
    /// series over non-empty buckets plus `+Inf`, `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for m in &self.metrics {
            let kind = match m.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            if !typed.contains(&m.name.as_str()) {
                typed.push(&m.name);
                out.push_str("# TYPE ");
                out.push_str(&m.name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&m.name);
                    push_label_set(&mut out, &m.labels, &[]);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&m.name);
                    push_label_set(&mut out, &m.labels, &[]);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Histogram(data) => {
                    let mut cumulative = 0u64;
                    for &(idx, n) in &data.buckets {
                        cumulative += n;
                        out.push_str(&m.name);
                        out.push_str("_bucket");
                        let le = bucket_upper(idx).to_string();
                        push_label_set(&mut out, &m.labels, &[("le", &le)]);
                        out.push(' ');
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    out.push_str(&m.name);
                    out.push_str("_bucket");
                    push_label_set(&mut out, &m.labels, &[("le", "+Inf")]);
                    out.push(' ');
                    out.push_str(&data.count.to_string());
                    out.push('\n');
                    out.push_str(&m.name);
                    out.push_str("_sum");
                    push_label_set(&mut out, &m.labels, &[]);
                    out.push(' ');
                    out.push_str(&data.sum.to_string());
                    out.push('\n');
                    out.push_str(&m.name);
                    out.push_str("_count");
                    push_label_set(&mut out, &m.labels, &[]);
                    out.push(' ');
                    out.push_str(&data.count.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// `minispark/telemetry-snapshot/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut labels = Json::obj();
                for (k, v) in &m.labels {
                    labels.push(k, Json::str(v.clone()));
                }
                let doc = Json::obj()
                    .with("name", Json::str(m.name.clone()))
                    .with("labels", labels);
                match &m.value {
                    SampleValue::Counter(v) => doc
                        .with("kind", Json::str("counter"))
                        .with("value", Json::num_u64(*v)),
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "gauge levels are task/record counts ≪ 2^53"
                    )]
                    SampleValue::Gauge(v) => doc
                        .with("kind", Json::str("gauge"))
                        .with("value", Json::num(*v as f64)),
                    SampleValue::Histogram(data) => doc
                        .with("kind", Json::str("histogram"))
                        .with("histogram", data.to_json()),
                }
            })
            .collect();
        Json::obj()
            .with("schema", Json::str(SNAPSHOT_SCHEMA))
            .with("epoch", Json::num_u64(self.epoch))
            .with("metrics", Json::Arr(metrics))
    }
}

// ---------------------------------------------------------------------------
// Engine probes
// ---------------------------------------------------------------------------

/// The executor's live instruments, threaded into every stage run.
#[derive(Clone)]
pub struct ExecutorProbe {
    /// Tasks claimed by a worker so far.
    pub tasks_claimed: Counter,
    /// Tasks completed so far.
    pub tasks_completed: Counter,
    /// Tasks submitted but not yet claimed.
    pub queue_depth: Gauge,
    /// Task busy durations, in nanoseconds.
    pub task_ns: LiveHistogram,
}

impl ExecutorProbe {
    /// A fully disabled probe (tests, engine-free executor use).
    pub fn disabled() -> Self {
        Self {
            tasks_claimed: Counter::disabled(),
            tasks_completed: Counter::disabled(),
            queue_depth: Gauge::disabled(),
            task_ns: LiveHistogram::disabled(),
        }
    }

    /// Registers the executor instruments on `registry`.
    pub fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            tasks_claimed: registry.counter("minispark_tasks_claimed_total"),
            tasks_completed: registry.counter("minispark_tasks_completed_total"),
            queue_depth: registry.gauge("minispark_queue_depth"),
            task_ns: registry.histogram("minispark_task_duration_ns"),
        }
    }

    /// Whether any instrument is live (gates post-stage histogram work).
    pub fn is_enabled(&self) -> bool {
        self.tasks_claimed.is_enabled()
    }
}

/// Every engine-side instrument a cluster owns, registered once at boot.
///
/// Two kinds. The executor probe and the in-flight gauge move while a stage
/// runs — that is what they are for. The four totals move only in
/// `Cluster::record_stage`, from the finished stage's row, so they never
/// disagree with [`crate::MetricsReport`].
pub(crate) struct EngineTelemetry {
    pub(crate) executor: ExecutorProbe,
    pub(crate) shuffle_inflight: Gauge,
    pub(crate) shuffle_records: Counter,
    pub(crate) shuffle_bytes: Counter,
    pub(crate) spill_runs: Counter,
    pub(crate) spill_bytes: Counter,
}

impl EngineTelemetry {
    pub(crate) fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            executor: ExecutorProbe::register(registry),
            shuffle_inflight: registry.gauge("minispark_shuffle_inflight_records"),
            shuffle_records: registry.counter("minispark_shuffle_records_total"),
            shuffle_bytes: registry.counter("minispark_shuffle_bytes_total"),
            spill_runs: registry.counter("minispark_spill_runs_total"),
            spill_bytes: registry.counter("minispark_spill_bytes_total"),
        }
    }
}

// ---------------------------------------------------------------------------
// Heartbeat sampler
// ---------------------------------------------------------------------------

struct HeartbeatShared {
    stop: AtomicBool,
    registry: TelemetryRegistry,
    started: Instant,
    interval: Duration,
    /// `(registry epoch, sample)`, every entry of the newest epoch sampled.
    samples: Mutex<Vec<(u64, Json)>>,
}

impl HeartbeatShared {
    fn sample(&self) {
        let snapshot = self.registry.snapshot();
        let mut metrics = Json::obj();
        for m in &snapshot.metrics {
            let value = match &m.value {
                SampleValue::Counter(v) => Json::num_u64(*v),
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "gauge levels are task/record counts ≪ 2^53"
                )]
                SampleValue::Gauge(v) => Json::num(*v as f64),
                SampleValue::Histogram(data) => {
                    let q = |p: f64| data.quantile(p).map_or(Json::Null, Json::num_u64);
                    Json::obj()
                        .with("count", Json::num_u64(data.count))
                        .with("sum", Json::num_u64(data.sum))
                        .with("p50", q(0.50))
                        .with("p95", q(0.95))
                        .with("p99", q(0.99))
                }
            };
            metrics.push(&m.series(), value);
        }
        let sample = Json::obj()
            .with(
                "t_ms",
                Json::num(self.started.elapsed().as_secs_f64() * 1e3),
            )
            .with("epoch", Json::num_u64(snapshot.epoch))
            .with("metrics", metrics);
        // A registry reset starts a new run: the first sample of a newer
        // epoch drops the older ones, and a sample taken before a reset but
        // stored after a newer one is dropped itself — the series only ever
        // holds the current run, so all its entries share one epoch.
        let mut samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        match samples.last() {
            Some(&(held, _)) if held > snapshot.epoch => return,
            Some(&(held, _)) if held < snapshot.epoch => samples.clear(),
            _ => {}
        }
        samples.push((snapshot.epoch, sample));
    }
}

/// Background sampler: snapshots a [`TelemetryRegistry`] every `interval`
/// into an in-memory time series, exported as a `minispark/heartbeat/v1`
/// JSON document. Reads only atomics, so it never perturbs task order or
/// determinism fingerprints. Stops (and joins its thread) on drop.
pub struct Heartbeat {
    shared: Arc<HeartbeatShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Starts sampling `registry` every `interval` (clamped to ≥ 1 ms).
    pub fn start(registry: TelemetryRegistry, interval: Duration) -> Self {
        let interval = interval.max(Duration::from_millis(1));
        let shared = Arc::new(HeartbeatShared {
            stop: AtomicBool::new(false),
            registry,
            started: Instant::now(),
            interval,
            samples: Mutex::new(Vec::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("minispark-heartbeat".to_string())
            .spawn(move || {
                'outer: loop {
                    // Sleep in short slices so drop never waits a full
                    // interval for the thread to notice the stop flag.
                    let mut waited = Duration::ZERO;
                    while waited < thread_shared.interval {
                        if thread_shared.stop.load(Ordering::Acquire) {
                            break 'outer;
                        }
                        let slice = (thread_shared.interval - waited).min(Duration::from_millis(5));
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                    thread_shared.sample();
                }
            })
            .ok();
        if handle.is_none() {
            eprintln!("minispark: could not spawn the heartbeat sampler thread");
        }
        Self { shared, handle }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.shared.interval
    }

    /// Takes one sample immediately (in addition to the timer's).
    pub fn sample_now(&self) {
        self.shared.sample();
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.shared
            .samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no sample has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `minispark/heartbeat/v1` document over the samples of the
    /// registry's current epoch: after a [`TelemetryRegistry::reset`], the
    /// previous run's samples are gone. Takes one final flush sample first so
    /// even sub-interval runs have data.
    pub fn document(&self) -> Json {
        self.sample_now();
        let samples = self
            .shared
            .samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(_, sample)| sample.clone())
            .collect();
        Json::obj()
            .with("schema", Json::str(HEARTBEAT_SCHEMA))
            .with(
                "interval_ms",
                Json::num(self.shared.interval.as_secs_f64() * 1e3),
            )
            .with("samples", Json::Arr(samples))
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means the sampler thread panicked; Drop must not double-panic"
            )]
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_exact_below_the_limit() {
        for v in 0..EXACT_LIMIT as u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_lower(idx), v);
            assert_eq!(bucket_upper(idx), v);
            assert_eq!(bucket_representative(idx), v);
        }
    }

    #[test]
    fn bucket_scheme_is_contiguous_and_monotone() {
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(idx) + 1,
                bucket_lower(idx + 1),
                "gap after bucket {idx}"
            );
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
        for v in [0, 31, 32, 33, 1000, 1 << 20, u64::MAX - 1, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS);
            assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx), "v={v}");
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [32u64, 100, 12345, 1 << 30, (1 << 40) + 7] {
            let idx = bucket_index(v);
            let width = bucket_upper(idx) - bucket_lower(idx) + 1;
            assert!(
                width as f64 / bucket_lower(idx) as f64 <= 1.0 / 16.0 + 1e-12,
                "bucket width {width} too wide at v={v}"
            );
        }
    }

    #[test]
    fn counters_and_gauges_record_and_read() {
        let reg = TelemetryRegistry::enabled();
        let c = reg.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = reg.counter("c_total");
        c2.inc();
        assert_eq!(c.get(), 6, "same name shares one cell");

        let g = reg.gauge("g");
        g.add_usize(10);
        g.dec();
        g.sub_usize(3);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn labels_separate_series() {
        let reg = TelemetryRegistry::enabled();
        let a = reg.counter_with("k_total", &[("driver", "vj")]);
        let b = reg.counter_with("k_total", &[("driver", "cl")]);
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.metrics[0].series(), "k_total{driver=\"vj\"}");
    }

    #[test]
    fn disabled_handles_are_plain_words_and_noop() {
        let reg = TelemetryRegistry::disabled();
        let c = reg.counter("c_total");
        let g = reg.gauge("g");
        let h = reg.histogram("h_ns");
        c.add(100);
        g.add(5);
        h.record(42);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.data().count, 0);
        assert!(reg.snapshot().metrics.is_empty());
        // The disabled handle is one nullable pointer — no heap behind it.
        assert_eq!(std::mem::size_of::<Counter>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Gauge>(), std::mem::size_of::<usize>());
        assert_eq!(
            std::mem::size_of::<LiveHistogram>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn histogram_quantiles_stay_within_bucket_bounds() {
        let reg = TelemetryRegistry::enabled();
        let h = reg.histogram("h");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let data = h.data();
        assert_eq!(data.count, 1000);
        assert_eq!(data.sum, 500_500);
        for (q, true_v) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let est = data.quantile(q).expect("non-empty");
            let err = est.abs_diff(true_v) as f64 / true_v as f64;
            assert!(err <= 1.0 / 16.0, "q={q}: est {est} vs {true_v}");
        }
    }

    #[test]
    fn histogram_merge_pools_counts() {
        let reg = TelemetryRegistry::enabled();
        let a = reg.histogram("a");
        let b = reg.histogram("b");
        for v in [1u64, 5, 100, 100, 7000] {
            a.record(v);
        }
        for v in [2u64, 100, 900_000] {
            b.record(v);
        }
        let mut merged = a.data();
        merged.merge(&b.data());
        assert_eq!(merged.count, 8);
        assert_eq!(merged.sum, a.data().sum + b.data().sum);
        let total: u64 = merged.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 8);
        assert!(merged.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn histogram_json_carries_count_sum_and_sparse_buckets() {
        let reg = TelemetryRegistry::enabled();
        let h = reg.histogram("h");
        for v in [0u64, 1, 31, 32, 1000, 123_456_789] {
            h.record(v);
        }
        let data = h.data();
        let text = data.to_json().render();
        let parsed = Json::parse(&text).expect("render emits valid JSON");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(6));
        assert_eq!(parsed.get("sum").and_then(Json::as_u64), Some(data.sum));
        let buckets = parsed
            .get("buckets")
            .and_then(Json::as_arr)
            .expect("buckets array");
        assert_eq!(buckets.len(), data.buckets.len());
    }

    #[test]
    fn reset_clears_cells_and_bumps_the_epoch() {
        let reg = TelemetryRegistry::enabled();
        let c = reg.counter("c_total");
        let h = reg.histogram("h");
        c.add(9);
        h.record(77);
        assert_eq!(reg.epoch(), 0);
        reg.reset();
        assert_eq!(reg.epoch(), 1);
        assert_eq!(c.get(), 0, "existing handles see the reset");
        assert_eq!(h.data().count, 0);
        c.inc();
        assert_eq!(c.get(), 1, "handles stay usable after reset");
    }

    #[test]
    fn prometheus_exposition_has_types_and_histogram_series() {
        let reg = TelemetryRegistry::enabled();
        reg.counter("jobs_total").add(3);
        reg.gauge("depth").add(-2);
        let h = reg.histogram_with("lat_ns", &[("stage", "map")]);
        h.record(10);
        h.record(5000);
        let text = reg.snapshot().prometheus();
        assert!(text.contains("# TYPE jobs_total counter"), "{text}");
        assert!(text.contains("jobs_total 3"), "{text}");
        assert!(text.contains("# TYPE depth gauge"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(
            text.contains("lat_ns_bucket{stage=\"map\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("lat_ns_sum{stage=\"map\"} 5010"), "{text}");
        assert!(text.contains("lat_ns_count{stage=\"map\"} 2"), "{text}");
        // Cumulative: the +Inf count equals the last bucket's cumulative sum.
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_ns_bucket"))
            .collect();
        assert_eq!(buckets.len(), 3, "{text}");
    }

    #[test]
    fn snapshot_json_is_versioned_and_parses() {
        let reg = TelemetryRegistry::enabled();
        reg.counter("a_total").inc();
        reg.histogram("h").record(123);
        let doc = reg.snapshot().to_json();
        let parsed = Json::parse(&doc.render()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("minispark/telemetry-snapshot/v1")
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn heartbeat_samples_and_documents() {
        let reg = TelemetryRegistry::enabled();
        let c = reg.counter("ticks_total");
        let hb = Heartbeat::start(reg.clone(), Duration::from_millis(5));
        c.add(7);
        std::thread::sleep(Duration::from_millis(30));
        let doc = hb.document();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("minispark/heartbeat/v1")
        );
        let samples = doc
            .get("samples")
            .and_then(Json::as_arr)
            .expect("samples array");
        assert!(!samples.is_empty(), "timer plus flush sample");
        let last = samples.last().expect("at least the flush sample");
        assert!(last.get("t_ms").and_then(Json::as_f64).is_some());
        assert_eq!(
            last.get("metrics")
                .and_then(|m| m.get("ticks_total"))
                .and_then(Json::as_u64),
            Some(7)
        );
        drop(hb); // must join cleanly
    }
}
