//! Execution tracing: per-task spans, phase spans and instant events, plus
//! the analytics and the Chrome `trace_event` export built on them.
//!
//! The paper's evaluation argues from runtime *mechanisms* — phase
//! breakdowns (Fig. 2), posting-list skew, spill behaviour — and the
//! aggregate [`crate::MetricsReport`] table cannot show *when* things
//! happened: which slot ran which task, how long tasks queued, whether CL-P's
//! δ-repartitioning really replaced one long task by many short ones. This
//! module records exactly that:
//!
//! * a [`TraceCollector`] attached to every [`crate::Cluster`]. Disabled by
//!   default and then a **no-op**: every recording entry point checks one
//!   boolean before touching the event buffer, so release benches pay
//!   nothing beyond timestamps the executor already takes;
//! * [`TaskEvent`]s carrying the queued → started → finished split (queue
//!   wait vs. busy time) and the worker-slot id for every executed task;
//! * [`PhaseEvent`]s from RAII [`SpanGuard`]s, used by the join drivers to
//!   label the Ordering → Clustering → Joining → Expansion pipeline;
//! * [`MarkEvent`]s for point-in-time facts (shuffle flushes, spill runs);
//! * [`ExecutorAnalytics`]: slot occupancy, idle fraction, queue-wait
//!   percentiles and a critical-path estimate per stage — the utilization
//!   view next to the existing [`crate::StageMetrics::skew`];
//! * [`chrome_trace`]: a Chrome `trace_event` document (open in Perfetto or
//!   `chrome://tracing`) with one track per slot and a phase track on top.
//!
//! All timestamps are nanoseconds relative to the collector's creation
//! (monotonic, from [`Instant`]), so traces from several clusters sharing
//! one collector (via [`TraceCollector::fork`]) line up on one timeline.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::executor::{steal_count, TaskSpan};
use crate::json::Json;

/// One executed task: where it ran and the queued/started/finished split.
///
/// Invariant: `queued_ns ≤ started_ns ≤ finished_ns`, so
/// `queue_wait() + busy()` is the task's total residence time, which is in
/// turn bounded by its stage's wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEvent {
    /// The metrics stage id the task belonged to.
    pub stage_id: usize,
    /// The stage's operator name.
    pub stage: Arc<str>,
    /// Task index within the stage.
    pub task: usize,
    /// Worker slot (0-based) the task executed on.
    pub slot: usize,
    /// When the task became runnable (stage submission), ns since epoch.
    pub queued_ns: u64,
    /// When a worker picked the task up, ns since epoch.
    pub started_ns: u64,
    /// When the task finished, ns since epoch.
    pub finished_ns: u64,
}

impl TaskEvent {
    /// Time spent waiting for a free slot.
    pub fn queue_wait(&self) -> Duration {
        Duration::from_nanos(self.started_ns.saturating_sub(self.queued_ns))
    }

    /// Time spent executing.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.finished_ns.saturating_sub(self.started_ns))
    }
}

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
    /// An executed task.
    Task(TaskEvent),
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
/// Cheap to clone (an `Arc` handle). Disabled by default
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
    fn with_enabled(enabled: bool, epoch: Instant) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                enabled,
                epoch,
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A collector that records events; its creation time is the trace epoch.
    pub fn enabled() -> Self {
        Self::with_enabled(true, Instant::now())
    }

    /// A no-op collector (the default on every cluster).
    pub fn disabled() -> Self {
        Self::with_enabled(false, Instant::now())
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// A collector with a **fresh buffer** sharing this collector's epoch
    /// and enabled-ness. Lets a harness give every measured run its own
    /// cluster (and thus an isolated per-run event set) while all events
    /// stay on one comparable timeline; merge back with
    /// [`TraceCollector::extend`].
    #[must_use]
    pub fn fork(&self) -> Self {
        Self::with_enabled(self.inner.enabled, self.inner.epoch)
    }

    fn now_ns(&self) -> u64 {
        instant_ns(self.inner.epoch, Instant::now())
    }

    /// Records the task spans of one executed stage. No-op when disabled.
    pub fn record_stage_tasks(&self, stage_id: usize, stage: &str, spans: &[TaskSpan]) {
        if !self.inner.enabled || spans.is_empty() {
            return;
        }
        let stage: Arc<str> = Arc::from(stage);
        let epoch = self.inner.epoch;
        let mut events = self
            .inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        events.reserve(spans.len());
        for span in spans {
            events.push(TraceEvent::Task(TaskEvent {
                stage_id,
                stage: Arc::clone(&stage),
                task: span.task,
                slot: span.slot,
                queued_ns: instant_ns(epoch, span.queued),
                started_ns: instant_ns(epoch, span.started),
                finished_ns: instant_ns(epoch, span.finished),
            }));
        }
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
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TraceEvent::Mark(MarkEvent {
                name: name.to_string(),
                at_ns,
                value,
            }));
    }

    /// Appends already-recorded events (from a [`TraceCollector::fork`]ed
    /// collector's snapshot). No-op when disabled.
    pub fn extend(&self, events: Vec<TraceEvent>) {
        if !self.inner.enabled {
            return;
        }
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(events);
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
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
            collector
                .inner
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(TraceEvent::Phase(PhaseEvent {
                    name: std::mem::take(&mut self.name),
                    begin_ns,
                    end_ns,
                }));
        }
    }
}

/// An immutable copy of a collector's events.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All recorded events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// The task events.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Task(t) => Some(t),
            _ => None,
        })
    }

    /// The phase events.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Phase(p) => Some(p),
            _ => None,
        })
    }

    /// The instant events.
    pub fn marks(&self) -> impl Iterator<Item = &MarkEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Mark(m) => Some(m),
            _ => None,
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

/// Utilization analysis of one stage, derived from its [`TaskEvent`]s.
#[derive(Debug, Clone)]
pub struct StageAnalytics {
    /// The metrics stage id.
    pub stage_id: usize,
    /// The stage's operator name.
    pub stage: String,
    /// Number of task events.
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
    /// assign ([`crate::executor::steal_count`]) — how much the dynamic
    /// claim backfilled idle slots, e.g. for skew-split sub-partitions.
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

/// Executor utilization derived from a [`TraceSnapshot`] — the timeline view
/// next to the aggregate [`crate::MetricsReport`].
#[derive(Debug, Clone)]
pub struct ExecutorAnalytics {
    /// The slot count the occupancy is computed against.
    pub slots: usize,
    /// Per-stage analysis, in stage-id order.
    pub stages: Vec<StageAnalytics>,
}

impl ExecutorAnalytics {
    /// Analyses a snapshot's task events against `slots` executor slots.
    pub fn from_snapshot(snapshot: &TraceSnapshot, slots: usize) -> Self {
        let slots = slots.max(1);
        let mut by_stage: std::collections::BTreeMap<usize, Vec<&TaskEvent>> =
            std::collections::BTreeMap::new();
        for task in snapshot.tasks() {
            by_stage.entry(task.stage_id).or_default().push(task);
        }
        let stages = by_stage
            .into_iter()
            .map(|(stage_id, tasks)| stage_analytics(stage_id, &tasks, slots))
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

fn stage_analytics(stage_id: usize, tasks: &[&TaskEvent], slots: usize) -> StageAnalytics {
    let first_queued = tasks.iter().map(|t| t.queued_ns).min().unwrap_or(0);
    let last_finished = tasks.iter().map(|t| t.finished_ns).max().unwrap_or(0);
    let span = Duration::from_nanos(last_finished.saturating_sub(first_queued));
    let busy: Duration = tasks.iter().map(|t| t.busy()).sum();
    let queue_wait: Duration = tasks.iter().map(|t| t.queue_wait()).sum();
    let longest_task = tasks
        .iter()
        .map(|t| t.busy())
        .max()
        .unwrap_or(Duration::ZERO);
    let max_slot = tasks.iter().map(|t| t.slot).max().unwrap_or(0);
    let mut slot_busy = vec![Duration::ZERO; (max_slot + 1).max(slots)];
    for t in tasks {
        slot_busy[t.slot] += t.busy();
    }
    // Recording order is preserved per stage, so wide stages' concatenated
    // map/reduce waves split correctly at their task-index resets.
    let pairs: Vec<(usize, usize)> = tasks.iter().map(|t| (t.task, t.slot)).collect();
    let stolen_tasks = steal_count(&pairs, slots);
    let mut waits: Vec<Duration> = tasks.iter().map(|t| t.queue_wait()).collect();
    waits.sort_unstable();
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
        stage_id,
        stage: tasks
            .first()
            .map(|t| t.stage.to_string())
            .unwrap_or_default(),
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
        stolen_tasks,
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

/// Renders a snapshot as a Chrome `trace_event` document ([`Json`] form).
///
/// Layout: one process (`pid` 0), thread 0 is the **phase track** (the
/// drivers' nested phase spans — nesting is by time containment, which is
/// how Perfetto stacks same-track complete events), and thread `slot + 1`
/// is the task track of executor slot `slot`. Instant events (shuffle
/// flushes, spill runs) land on the phase track.
pub fn chrome_trace(snapshot: &TraceSnapshot) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(snapshot.events.len() + 8);
    events.push(chrome_event("process_name", "M", 0, 0).with(
        "args",
        Json::obj().with("name", Json::str("minispark simulated cluster")),
    ));
    events.extend(thread_meta(0, "phases", 0));
    let mut max_slot: Option<usize> = None;
    for event in &snapshot.events {
        match event {
            TraceEvent::Task(t) => {
                max_slot = Some(max_slot.map_or(t.slot, |m| m.max(t.slot)));
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "queue waits are far below u64::MAX ns ≈ 584 years"
                )]
                events.push(
                    chrome_event(&t.stage, "X", t.slot + 1, t.started_ns)
                        .with("dur", micros(t.finished_ns.saturating_sub(t.started_ns)))
                        .with("cat", Json::str("task"))
                        .with(
                            "args",
                            Json::obj()
                                .with("stage_id", Json::num_usize(t.stage_id))
                                .with("task", Json::num_usize(t.task))
                                .with("queue_wait_us", micros(t.queue_wait().as_nanos() as u64)),
                        ),
                );
            }
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
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    chrome_trace(snapshot).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task: usize, slot: usize, q: u64, s: u64, f: u64) -> TaskEvent {
        TaskEvent {
            stage_id: 0,
            stage: Arc::from("stage"),
            task,
            slot,
            queued_ns: q,
            started_ns: s,
            finished_ns: f,
        }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::disabled();
        assert!(!c.is_enabled());
        {
            let _g = c.span("phase");
            c.mark("mark", 1);
        }
        c.record_stage_tasks(
            0,
            "s",
            &[TaskSpan {
                task: 0,
                slot: 0,
                queued: Instant::now(),
                started: Instant::now(),
                finished: Instant::now(),
            }],
        );
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn enabled_collector_records_phases_marks_tasks() {
        let c = TraceCollector::enabled();
        {
            let _g = c.span("phase-a");
            c.mark("flush", 42);
        }
        let now = Instant::now();
        c.record_stage_tasks(
            3,
            "stage-x",
            &[TaskSpan {
                task: 1,
                slot: 2,
                queued: now,
                started: now,
                finished: now,
            }],
        );
        let snap = c.snapshot();
        assert_eq!(snap.phases().count(), 1);
        assert_eq!(snap.marks().next().map(|m| m.value), Some(42));
        let task = snap.tasks().next().expect("task recorded");
        assert_eq!((task.stage_id, task.task, task.slot), (3, 1, 2));
        assert_eq!(&*task.stage, "stage-x");
        c.clear();
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn fork_shares_epoch_but_not_buffer() {
        let parent = TraceCollector::enabled();
        let child = parent.fork();
        child.mark("child-only", 1);
        assert!(parent.snapshot().is_empty());
        assert_eq!(child.snapshot().events.len(), 1);
        parent.extend(child.snapshot().events);
        assert_eq!(parent.snapshot().events.len(), 1);
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
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent::Task(span(0, 0, 0, 0, 100)),
                TraceEvent::Task(span(1, 1, 0, 60, 100)),
            ],
        };
        let a = ExecutorAnalytics::from_snapshot(&snap, 2);
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
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent::Task(span(0, 0, 0, 0, 10)),
                TraceEvent::Task(span(1, 0, 0, 10, 20)),
                TraceEvent::Task(span(2, 0, 0, 20, 100)),
            ],
        };
        let a = ExecutorAnalytics::from_snapshot(&snap, 4);
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
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent::Phase(PhaseEvent {
                    name: "cl/phase/joining".into(),
                    begin_ns: 0,
                    end_ns: 5_000,
                }),
                TraceEvent::Task(span(0, 1, 0, 1_000, 3_000)),
                TraceEvent::Mark(MarkEvent {
                    name: "spill-run/x".into(),
                    at_ns: 2_000,
                    value: 1,
                }),
            ],
        };
        let doc = chrome_trace(&snap);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Task on tid = slot + 1 = 2 with dur 2 µs.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(2)
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
