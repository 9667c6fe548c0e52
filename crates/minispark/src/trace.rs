//! Execution tracing: phase spans and instant events, plus the executor
//! analytics and the Chrome `trace_event` export built on them and on the
//! stage rows.
//!
//! The paper's evaluation argues from runtime *mechanisms* — phase
//! breakdowns (Fig. 2), posting-list skew, spill behaviour — and the
//! aggregate [`crate::MetricsReport`] table cannot show *when* things
//! happened: which slot ran which task, how long tasks queued, whether CL-P's
//! δ-repartitioning really replaced one long task by many short ones. Every
//! task's queued → started → finished span and slot id is stored once, in
//! its stage's [`StageMetrics`] row ([`StageMetrics::spans`]), whether or
//! not tracing is on. This module adds what a stage row cannot hold and the
//! views over both:
//!
//! * a [`TraceCollector`] attached to every [`crate::Cluster`]. Disabled by
//!   default and then a **no-op**: every recording entry point checks one
//!   boolean before touching the event buffer;
//! * [`PhaseEvent`]s from RAII [`SpanGuard`]s, used by the join drivers to
//!   label the Ordering → Clustering → Joining → Expansion pipeline;
//! * [`MarkEvent`]s for point-in-time facts (shuffle flushes, spill runs);
//! * [`ExecutorAnalytics`]: slot occupancy, idle fraction, queue-wait
//!   percentiles and a critical-path estimate per stage, read off a
//!   [`MetricsReport`]'s stage rows — the utilization view next to the
//!   existing [`crate::StageMetrics::skew`], traced or not;
//! * [`chrome_trace`]: a Chrome `trace_event` document (open in Perfetto or
//!   `chrome://tracing`) with one track per slot, drawn from stage rows, and
//!   a phase track on top, drawn from the trace.
//!
//! All timestamps are nanoseconds relative to the collector's creation
//! ([`TraceSnapshot::epoch`], monotonic, from [`Instant`]), so several
//! clusters sharing one collector record onto one timeline, and their stage
//! rows' instants are placed on it.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::executor::TaskSpan;
use crate::json::Json;
use crate::metrics::{MetricsReport, StageMetrics};

/// A labelled driver-side interval (a join phase, a whole run, …), recorded
/// by a [`SpanGuard`] on drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// The phase label, e.g. `"cl-p/phase/joining"`.
    pub name: String,
    /// Start, ns since epoch.
    pub begin_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

/// A point-in-time fact with a counter value (shuffle flush, spill run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkEvent {
    /// The event label, e.g. `"spill-run/vj/group-by-token"`.
    pub name: String,
    /// When it happened, ns since epoch.
    pub at_ns: u64,
    /// An attached count (records flushed, runs spilled, …).
    pub value: u64,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A labelled driver-side interval.
    Phase(PhaseEvent),
    /// A point-in-time fact.
    Mark(MarkEvent),
}

#[derive(Debug)]
struct TraceInner {
    enabled: bool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// The span/event collector attached to a [`crate::Cluster`].
///
/// Cheap to clone (an `Arc` handle); clusters built with clones of one
/// collector record onto one buffer and one timeline. Disabled by default
/// ([`TraceCollector::disabled`], also [`Default`]): a disabled collector is
/// a no-op — every recording method returns after one boolean check, so the
/// engine's hot paths are unaffected unless tracing was requested.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    inner: Arc<TraceInner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TraceCollector {
    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                enabled,
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A collector that records events; its creation time is the trace epoch.
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// A no-op collector (the default on every cluster).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn now_ns(&self) -> u64 {
        instant_ns(self.inner.epoch, Instant::now())
    }

    fn push(&self, event: TraceEvent) {
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Opens a phase span; the [`PhaseEvent`] is recorded when the returned
    /// guard drops. When disabled, the guard is inert.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        if !self.inner.enabled {
            return SpanGuard {
                collector: None,
                name: String::new(),
                begin: self.inner.epoch,
            };
        }
        SpanGuard {
            collector: Some(self.clone()),
            name: name.into(),
            begin: Instant::now(),
        }
    }

    /// Records an instant event. No-op when disabled.
    pub fn mark(&self, name: &str, value: u64) {
        if !self.inner.enabled {
            return;
        }
        let at_ns = self.now_ns();
        self.push(TraceEvent::Mark(MarkEvent {
            name: name.to_string(),
            at_ns,
            value,
        }));
    }

    /// A copy of everything recorded so far, with the collector's epoch.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            epoch: self.inner.epoch,
            events: self
                .inner
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    /// Drops all recorded events (between benchmark iterations).
    pub fn clear(&self) {
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

fn instant_ns(epoch: Instant, at: Instant) -> u64 {
    // Saturating: an instant from before the epoch (impossible in normal
    // wiring, where the collector outlives the clusters) clamps to 0.
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard for a phase span; records a [`PhaseEvent`] when dropped.
#[must_use = "the span ends when the guard drops — bind it to a variable"]
pub struct SpanGuard {
    collector: Option<TraceCollector>,
    name: String,
    begin: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(collector) = self.collector.take() {
            let begin_ns = instant_ns(collector.inner.epoch, self.begin);
            let end_ns = collector.now_ns();
            collector.push(TraceEvent::Phase(PhaseEvent {
                name: std::mem::take(&mut self.name),
                begin_ns,
                end_ns,
            }));
        }
    }
}

/// An immutable copy of a collector's events.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// The collector's creation time: every event's `*_ns` counts from here,
    /// and [`TraceSnapshot::offset_ns`] places a stage row's instants on the
    /// same timeline.
    pub epoch: Instant,
    /// All recorded events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// `at` as nanoseconds since [`TraceSnapshot::epoch`] (0 for an instant
    /// before it).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        instant_ns(self.epoch, at)
    }

    /// The phase events.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Phase(p) => Some(p),
            TraceEvent::Mark(_) => None,
        })
    }

    /// The instant events.
    pub fn marks(&self) -> impl Iterator<Item = &MarkEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Mark(m) => Some(m),
            TraceEvent::Phase(_) => None,
        })
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Executor analytics
// ---------------------------------------------------------------------------

/// Utilization analysis of one stage, derived from its row's task spans.
#[derive(Debug, Clone)]
pub struct StageAnalytics {
    /// The metrics stage id.
    pub stage_id: usize,
    /// The stage's operator name.
    pub stage: String,
    /// Number of task spans.
    pub tasks: usize,
    /// First queued → last finished.
    pub span: Duration,
    /// Summed task busy time.
    pub busy: Duration,
    /// Summed task queue wait.
    pub queue_wait: Duration,
    /// `busy / (slots × span)`: the fraction of available slot-time the
    /// stage actually used, in `[0, 1]`.
    pub occupancy: f64,
    /// `1 − occupancy`, in `[0, 1]`.
    pub idle_fraction: f64,
    /// Median task queue wait.
    pub queue_wait_p50: Duration,
    /// 95th-percentile task queue wait.
    pub queue_wait_p95: Duration,
    /// Worst task queue wait.
    pub queue_wait_max: Duration,
    /// The longest single task (the stage's contribution to the critical
    /// path under unbounded parallelism).
    pub longest_task: Duration,
    /// Busy time per slot id (index = slot), the stage's occupancy timeline
    /// across the simulated cores. Padded to the analysed slot count, so
    /// slots the stage never touched show up as zero busy time.
    pub slot_busy: Vec<Duration>,
    /// Tasks that ran on a different slot than static round-robin would
    /// assign ([`StageMetrics::stolen_tasks`]) — how much the dynamic claim
    /// backfilled idle slots, e.g. for skew-split sub-partitions.
    pub stolen_tasks: usize,
}

impl StageAnalytics {
    /// Occupancy of the stage's **least-busy** slot, in `[0, 1]`:
    /// `min(slot_busy) / span`. The straggler indicator — a stage whose one
    /// oversized task pins a single slot scores ~0 here even when that slot
    /// is saturated, which is exactly what skew-aware group splitting is
    /// meant to raise.
    pub fn min_slot_occupancy(&self) -> f64 {
        if self.span.is_zero() {
            return 1.0;
        }
        let min = self
            .slot_busy
            .iter()
            .min()
            .copied()
            .unwrap_or(Duration::ZERO);
        (min.as_secs_f64() / self.span.as_secs_f64()).clamp(0.0, 1.0)
    }
}

/// Executor utilization derived from a [`MetricsReport`]'s stage rows — the
/// timeline view next to the aggregate table.
#[derive(Debug, Clone)]
pub struct ExecutorAnalytics {
    /// The slot count the occupancy is computed against.
    pub slots: usize,
    /// Per-stage analysis, in stage order.
    pub stages: Vec<StageAnalytics>,
}

impl ExecutorAnalytics {
    /// Analyses every stage row of `report` that holds task spans against
    /// the report's slot count ([`MetricsReport::slots`], 0 counted as 1).
    pub fn from_metrics(report: &MetricsReport) -> Self {
        let slots = report.slots.max(1);
        let stages = report
            .stages
            .iter()
            .filter(|stage| !stage.spans.is_empty())
            .map(|stage| stage_analytics(stage, slots))
            .collect();
        Self { slots, stages }
    }

    /// A lower bound on the achievable wall time with unbounded slots: the
    /// sum over stages of their longest task (stages run sequentially, so a
    /// stage can never finish before its longest task does). The gap between
    /// measured wall time and this estimate is what better load balancing
    /// (e.g. CL-P's δ-repartitioning) can recover.
    pub fn critical_path(&self) -> Duration {
        self.stages.iter().map(|s| s.longest_task).sum()
    }

    /// Total busy time across all stages.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy).sum()
    }

    /// Busy-time-weighted mean occupancy across stages, in `[0, 1]`.
    #[expect(
        clippy::cast_precision_loss,
        reason = "slot counts are tiny — exact in f64"
    )]
    pub fn overall_occupancy(&self) -> f64 {
        let span: f64 = self.stages.iter().map(|s| s.span.as_secs_f64()).sum();
        if span <= 0.0 {
            return 1.0;
        }
        let busy: f64 = self.stages.iter().map(|s| s.busy.as_secs_f64()).sum();
        (busy / (self.slots as f64 * span)).clamp(0.0, 1.0)
    }

    /// `1 −` [`ExecutorAnalytics::overall_occupancy`].
    pub fn overall_idle_fraction(&self) -> f64 {
        1.0 - self.overall_occupancy()
    }
}

fn stage_analytics(stage: &StageMetrics, slots: usize) -> StageAnalytics {
    let tasks = &stage.spans;
    let first_queued = tasks.iter().map(|t| t.queued).min();
    let last_finished = tasks.iter().map(|t| t.finished).max();
    let span = (first_queued.zip(last_finished))
        .map_or(Duration::ZERO, |(q, f)| f.saturating_duration_since(q));
    let busy = stage.task_time();
    let longest_task = stage.task_durations().max().unwrap_or(Duration::ZERO);
    let max_slot = tasks.iter().map(|t| t.slot).max().unwrap_or(0);
    let mut slot_busy = vec![Duration::ZERO; (max_slot + 1).max(slots)];
    for t in tasks {
        slot_busy[t.slot] += t.busy();
    }
    let mut waits: Vec<Duration> = tasks.iter().map(TaskSpan::queue_wait).collect();
    waits.sort_unstable();
    let queue_wait: Duration = waits.iter().sum();
    #[expect(
        clippy::cast_precision_loss,
        reason = "slot counts are tiny — exact in f64"
    )]
    let occupancy = if span.is_zero() {
        1.0
    } else {
        (busy.as_secs_f64() / (slots as f64 * span.as_secs_f64())).clamp(0.0, 1.0)
    };
    StageAnalytics {
        stage_id: stage.stage_id,
        stage: stage.name.clone(),
        tasks: tasks.len(),
        span,
        busy,
        queue_wait,
        occupancy,
        idle_fraction: 1.0 - occupancy,
        queue_wait_p50: percentile(&waits, 50),
        queue_wait_p95: percentile(&waits, 95),
        queue_wait_max: waits.last().copied().unwrap_or(Duration::ZERO),
        longest_task,
        slot_busy,
        stolen_tasks: stage.stolen_tasks(slots),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

#[expect(
    clippy::cast_precision_loss,
    reason = "trace timestamps — rounding beyond 2^53 ns (~3 months) is fine in a trace"
)]
fn micros(ns: u64) -> Json {
    Json::num(ns as f64 / 1e3)
}

fn duration_micros(d: Duration) -> Json {
    micros(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn chrome_event(name: &str, ph: &str, tid: usize, ts_ns: u64) -> Json {
    Json::obj()
        .with("name", Json::str(name))
        .with("ph", Json::str(ph))
        .with("pid", Json::num_usize(0))
        .with("tid", Json::num_usize(tid))
        .with("ts", micros(ts_ns))
}

fn thread_meta(tid: usize, name: &str, sort_index: usize) -> Vec<Json> {
    vec![
        chrome_event("thread_name", "M", tid, 0)
            .with("args", Json::obj().with("name", Json::str(name))),
        chrome_event("thread_sort_index", "M", tid, 0).with(
            "args",
            Json::obj().with("sort_index", Json::num_usize(sort_index)),
        ),
    ]
}

/// Renders a trace snapshot plus the stage rows of the runs it covers as a
/// Chrome `trace_event` document ([`Json`] form). The rows' instants are
/// placed on the snapshot's epoch, so rows from several clusters that shared
/// the collector line up with its phases and with each other.
///
/// Layout: one process (`pid` 0), thread 0 is the **phase track** (the
/// drivers' nested phase spans — nesting is by time containment, which is
/// how Perfetto stacks same-track complete events), and thread `slot + 1`
/// is the task track of executor slot `slot`: one complete event per task
/// span. Instant events (shuffle flushes, spill runs) land on the phase
/// track.
pub fn chrome_trace<'a>(
    snapshot: &TraceSnapshot,
    stages: impl IntoIterator<Item = &'a StageMetrics>,
) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(snapshot.events.len() + 8);
    events.push(chrome_event("process_name", "M", 0, 0).with(
        "args",
        Json::obj().with("name", Json::str("minispark simulated cluster")),
    ));
    events.extend(thread_meta(0, "phases", 0));
    let mut max_slot: Option<usize> = None;
    for stage in stages {
        for t in &stage.spans {
            max_slot = Some(max_slot.map_or(t.slot, |m| m.max(t.slot)));
            events.push(
                chrome_event(&stage.name, "X", t.slot + 1, snapshot.offset_ns(t.started))
                    .with("dur", duration_micros(t.busy()))
                    .with("cat", Json::str("task"))
                    .with(
                        "args",
                        Json::obj()
                            .with("stage_id", Json::num_usize(stage.stage_id))
                            .with("task", Json::num_usize(t.task))
                            .with("queue_wait_us", duration_micros(t.queue_wait())),
                    ),
            );
        }
    }
    for event in &snapshot.events {
        match event {
            TraceEvent::Phase(p) => {
                events.push(
                    chrome_event(&p.name, "X", 0, p.begin_ns)
                        .with("dur", micros(p.end_ns.saturating_sub(p.begin_ns)))
                        .with("cat", Json::str("phase")),
                );
            }
            TraceEvent::Mark(m) => {
                events.push(
                    chrome_event(&m.name, "i", 0, m.at_ns)
                        .with("s", Json::str("t"))
                        .with("cat", Json::str("mark"))
                        .with("args", Json::obj().with("value", Json::num_u64(m.value))),
                );
            }
        }
    }
    if let Some(max) = max_slot {
        for slot in 0..=max {
            events.extend(thread_meta(slot + 1, &format!("slot {slot}"), slot + 1));
        }
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::str("ms"))
}

/// [`chrome_trace`], rendered to a JSON string.
pub fn chrome_trace_json<'a>(
    snapshot: &TraceSnapshot,
    stages: impl IntoIterator<Item = &'a StageMetrics>,
) -> String {
    chrome_trace(snapshot, stages).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(base: Instant, spans: &[(usize, usize, (u64, u64, u64))]) -> StageMetrics {
        StageMetrics::synthetic("stage", base, spans)
    }

    fn report(slots: usize, stages: Vec<StageMetrics>) -> MetricsReport {
        MetricsReport { slots, stages }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::disabled();
        assert!(!c.is_enabled());
        {
            let _g = c.span("phase");
            c.mark("mark", 1);
        }
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn enabled_collector_records_phases_and_marks() {
        let c = TraceCollector::enabled();
        {
            let _g = c.span("phase-a");
            c.mark("flush", 42);
        }
        let snap = c.snapshot();
        assert_eq!(snap.phases().count(), 1);
        assert_eq!(snap.marks().next().map(|m| m.value), Some(42));
        c.clear();
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_buffer_and_epoch() {
        let parent = TraceCollector::enabled();
        let child = parent.clone();
        child.mark("child", 1);
        let snap = parent.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.epoch, child.snapshot().epoch);
        assert_eq!(snap.offset_ns(snap.epoch + Duration::from_nanos(7)), 7);
    }

    #[test]
    fn phase_ordering_is_monotonic() {
        let c = TraceCollector::enabled();
        {
            let _g = c.span("outer");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = c.snapshot();
        let p = snap.phases().next().expect("phase");
        assert!(p.end_ns >= p.begin_ns + 1_000_000 / 2);
    }

    #[test]
    fn analytics_compute_occupancy_and_waits() {
        // Two slots, span 100ns; slot 0 busy 100, slot 1 busy 40 after a
        // 60ns queue wait → occupancy (100+40)/200 = 0.7.
        let base = Instant::now();
        let a = ExecutorAnalytics::from_metrics(&report(
            2,
            vec![row(base, &[(0, 0, (0, 0, 100)), (1, 1, (0, 60, 100))])],
        ));
        assert_eq!(a.stages.len(), 1);
        let s = &a.stages[0];
        assert_eq!(s.tasks, 2);
        assert_eq!(s.span, Duration::from_nanos(100));
        assert!((s.occupancy - 0.7).abs() < 1e-9);
        assert!((s.idle_fraction - 0.3).abs() < 1e-9);
        assert_eq!(s.queue_wait_max, Duration::from_nanos(60));
        assert_eq!(s.queue_wait_p50, Duration::ZERO);
        assert_eq!(s.longest_task, Duration::from_nanos(100));
        assert_eq!(s.slot_busy.len(), 2);
        assert_eq!(s.slot_busy[1], Duration::from_nanos(40));
        assert_eq!(a.critical_path(), Duration::from_nanos(100));
        assert_eq!(a.total_busy(), Duration::from_nanos(140));
        assert!(a.overall_occupancy() > 0.0);
        // Round-robin placement: nothing stolen; least-busy slot is slot 1
        // with 40/100 of the span.
        assert_eq!(s.stolen_tasks, 0);
        assert!((s.min_slot_occupancy() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn analytics_count_steals_and_pad_idle_slots() {
        // Three tasks, 4 analysed slots, everything on slot 0: tasks 1 and 2
        // deviate from round-robin over min(4, 3) = 3 workers.
        let base = Instant::now();
        let a = ExecutorAnalytics::from_metrics(&report(
            4,
            vec![
                row(
                    base,
                    &[
                        (0, 0, (0, 0, 10)),
                        (1, 0, (0, 10, 20)),
                        (2, 0, (0, 20, 100)),
                    ],
                ),
                row(base, &[]),
            ],
        ));
        assert_eq!(a.stages.len(), 1, "a row without spans is not analysed");
        let s = &a.stages[0];
        assert_eq!(s.stolen_tasks, 2);
        // slot_busy is padded to the slot count; untouched slots are zero,
        // so the straggler indicator bottoms out.
        assert_eq!(s.slot_busy.len(), 4);
        assert_eq!(s.slot_busy[3], Duration::ZERO);
        assert_eq!(s.min_slot_occupancy(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let d: Vec<Duration> = (1..=10).map(Duration::from_nanos).collect();
        assert_eq!(percentile(&d, 50), Duration::from_nanos(5));
        assert_eq!(percentile(&d, 95), Duration::from_nanos(10));
        assert_eq!(percentile(&d, 100), Duration::from_nanos(10));
        assert_eq!(percentile(&[], 50), Duration::ZERO);
    }

    #[test]
    fn chrome_trace_has_slot_tracks_and_parses() {
        let epoch = Instant::now();
        let snap = TraceSnapshot {
            epoch,
            events: vec![
                TraceEvent::Phase(PhaseEvent {
                    name: "cl/phase/joining".into(),
                    begin_ns: 0,
                    end_ns: 5_000,
                }),
                TraceEvent::Mark(MarkEvent {
                    name: "spill-run/x".into(),
                    at_ns: 2_000,
                    value: 1,
                }),
            ],
        };
        let stages = [row(epoch, &[(0, 1, (0, 1_000, 3_000))])];
        let doc = chrome_trace(&snap, &stages);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Task on tid = slot + 1 = 2 at 1 µs after the epoch, dur 2 µs.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(2)
                && e.get("ts").and_then(Json::as_f64) == Some(1.0)
                && e.get("dur").and_then(Json::as_f64) == Some(2.0)
        }));
        // Thread metadata names the slot track.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("slot 1")
        }));
        // The phase span sits on tid 0.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("cl/phase/joining")
                && e.get("tid").and_then(Json::as_u64) == Some(0)
        }));
    }
}
