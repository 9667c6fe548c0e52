//! Per-stage execution metrics.
//!
//! The paper's analysis leans on runtime *mechanisms* — shuffle volume,
//! partition skew, spill behaviour — so the engine records them for every
//! stage. The report is what the benchmark harness prints next to wall-clock
//! times.

use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::executor::{steal_count, TaskSpan};

/// Metrics of a single executed stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Sequence number of the stage within its cluster's lifetime.
    pub stage_id: usize,
    /// Operator name supplied by the caller (e.g. `"group-by-token"`).
    pub name: String,
    /// Wall-clock duration of the stage (including scheduling).
    pub wall: Duration,
    /// The executor's span of every task, a wide stage's map and reduce
    /// waves back to back; a driver stage holds one slot-0 span over its
    /// wall time. The one store of the stage's task timings: busy times,
    /// the simulated makespan, steals and the executor analytics are all
    /// read off it.
    pub spans: Vec<TaskSpan>,
    /// Number of tasks (usually the partition count).
    pub num_tasks: usize,
    /// Records read by the stage.
    pub input_records: usize,
    /// Records produced by the stage.
    pub output_records: usize,
    /// Records moved across the shuffle boundary (0 for narrow stages).
    pub shuffle_records: usize,
    /// Estimated bytes moved across the shuffle boundary.
    pub shuffle_bytes: usize,
    /// Size of the largest output partition in records (skew indicator).
    pub max_partition_records: usize,
    /// Number of run files spilled to disk by memory-aware operators.
    pub spilled_runs: usize,
}

impl StageMetrics {
    /// Busy duration of each task, in span order (the input to the
    /// cluster-simulation makespan, [`StageMetrics::simulated_wall`]).
    pub fn task_durations(&self) -> impl Iterator<Item = Duration> + '_ {
        self.spans.iter().map(TaskSpan::busy)
    }

    /// Sum of the per-task busy durations.
    pub fn task_time(&self) -> Duration {
        self.task_durations().sum()
    }

    /// Tasks that executed on a different slot than a static round-robin
    /// assignment over `slots` would use ([`steal_count`]): how much the
    /// dynamic claim backfilled idle slots. 0 for driver-side stages and
    /// single-slot runs. A wide stage's waves each restart their task
    /// indices; steals are counted per wave.
    pub fn stolen_tasks(&self, slots: usize) -> usize {
        let claims: Vec<(usize, usize)> = self.spans.iter().map(|s| (s.task, s.slot)).collect();
        steal_count(&claims, slots)
    }

    /// Simulated wall-clock time of this stage on a cluster with `slots`
    /// concurrently usable cores: the makespan of an LPT (longest processing
    /// time first) schedule of the measured task durations onto `slots`
    /// machines.
    ///
    /// This is what makes scalability experiments meaningful on hosts with
    /// fewer physical cores than the simulated cluster: per-task compute
    /// times are measured for real, only their overlap is simulated. LPT is
    /// within 4/3 of the optimal makespan and mirrors Spark's
    /// first-free-core task assignment.
    pub fn simulated_wall(&self, slots: usize) -> Duration {
        let slots = slots.max(1);
        if self.spans.is_empty() {
            return self.wall;
        }
        let mut sorted: Vec<Duration> = self.task_durations().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut loads = vec![Duration::ZERO; slots.min(sorted.len()).max(1)];
        for task in sorted {
            // Assign to the least-loaded slot.
            let min = loads.iter_mut().min().expect("at least one slot");
            *min += task;
        }
        loads.into_iter().max().unwrap_or(Duration::ZERO)
    }

    /// Skew ratio: largest partition share relative to the perfectly
    /// balanced share (1.0 = balanced; the paper's skewed posting lists show
    /// up as ≫ 1 here).
    #[expect(
        clippy::cast_precision_loss,
        reason = "observability ratio — f64 rounding beyond 2^53 records is irrelevant"
    )]
    pub fn skew(&self) -> f64 {
        if self.output_records == 0 || self.num_tasks == 0 {
            return 1.0;
        }
        let balanced = self.output_records as f64 / self.num_tasks as f64;
        if balanced == 0.0 {
            1.0
        } else {
            self.max_partition_records as f64 / balanced
        }
    }
}

/// Collector shared by all datasets of one [`crate::Cluster`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: Mutex<Vec<StageMetrics>>,
}

impl MetricsRegistry {
    /// Records one finished stage and assigns its id.
    pub fn record(&self, mut stage: StageMetrics) -> usize {
        let mut stages = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
        stage.stage_id = stages.len();
        let id = stage.stage_id;
        stages.push(stage);
        id
    }

    /// Snapshot of everything recorded so far. The registry does not know
    /// the cluster's slot count; `Cluster::metrics` fills
    /// [`MetricsReport::slots`] in.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            slots: 1,
            stages: self
                .stages
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    /// Number of stages recorded so far — a cheap peek that avoids cloning a
    /// full [`MetricsReport`] when a caller only needs a high-water mark
    /// (e.g. [`crate::skew::split_grouped_join`]'s steal accounting).
    pub fn stage_count(&self) -> usize {
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drops all recorded stages (used between benchmark iterations).
    pub fn reset(&self) {
        self.stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// An immutable snapshot of all stage metrics of a cluster.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// The task-slot count of the cluster the report came from; the
    /// `sim(ms)` column of the [`fmt::Display`] table is
    /// [`StageMetrics::simulated_wall`] for this many slots (0 is treated
    /// as 1).
    pub slots: usize,
    /// The recorded stages in execution order.
    pub stages: Vec<StageMetrics>,
}

impl MetricsReport {
    /// Total wall time across stages (stages run sequentially, so this sums).
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Total simulated wall time on a cluster with `slots` cores (see
    /// [`StageMetrics::simulated_wall`]).
    pub fn simulated_total(&self, slots: usize) -> Duration {
        self.stages.iter().map(|s| s.simulated_wall(slots)).sum()
    }

    /// Total records moved through shuffles.
    pub fn total_shuffle_records(&self) -> usize {
        self.stages.iter().map(|s| s.shuffle_records).sum()
    }

    /// Total estimated shuffle bytes.
    pub fn total_shuffle_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.shuffle_bytes).sum()
    }

    /// Total spilled run files.
    pub fn total_spilled_runs(&self) -> usize {
        self.stages.iter().map(|s| s.spilled_runs).sum()
    }

    /// Total stolen tasks across stages at the report's slot count (see
    /// [`StageMetrics::stolen_tasks`]).
    pub fn total_stolen_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.stolen_tasks(self.slots)).sum()
    }

    /// The worst skew ratio observed in any stage.
    pub fn max_skew(&self) -> f64 {
        self.stages
            .iter()
            .map(StageMetrics::skew)
            .fold(1.0, f64::max)
    }

    /// Stages whose name contains `needle` (metrics for one logical phase).
    pub fn stages_named(&self, needle: &str) -> Vec<&StageMetrics> {
        self.stages
            .iter()
            .filter(|s| s.name.contains(needle))
            .collect()
    }

    /// Wall time per logical phase, grouping stages by the prefix of their
    /// name up to the second `/` (e.g. `"cl/cluster/..."` → `"cl/cluster"`).
    /// Preserves first-seen order — for the joins this reproduces the
    /// Ordering → Clustering → Joining → Expansion breakdown of the paper's
    /// Figure 2.
    pub fn phase_wall_times(&self) -> Vec<(String, Duration)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<String, Duration> =
            std::collections::HashMap::new();
        for stage in &self.stages {
            let phase = match stage.name.match_indices('/').nth(1) {
                Some((idx, _)) => stage.name[..idx].to_string(),
                None => stage.name.clone(),
            };
            if !totals.contains_key(&phase) {
                order.push(phase.clone());
            }
            *totals.entry(phase).or_insert(Duration::ZERO) += stage.wall;
        }
        order
            .into_iter()
            .map(|phase| {
                let total = totals[&phase];
                (phase, total)
            })
            .collect()
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slots = self.slots.max(1);
        writeln!(
            f,
            "{:>4} {:<32} {:>9} {:>9} {:>6} {:>10} {:>10} {:>10} {:>12} {:>6} {:>6} {:>6}",
            "id",
            "stage",
            "wall(ms)",
            "sim(ms)",
            "tasks",
            "in",
            "out",
            "shuf.rec",
            "shuf.bytes",
            "skew",
            "spill",
            "steal"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:>4} {:<32} {:>9.1} {:>9.1} {:>6} {:>10} {:>10} {:>10} {:>12} {:>6.2} {:>6} {:>6}",
                s.stage_id,
                s.name,
                s.wall.as_secs_f64() * 1e3,
                s.simulated_wall(slots).as_secs_f64() * 1e3,
                s.num_tasks,
                s.input_records,
                s.output_records,
                s.shuffle_records,
                s.shuffle_bytes,
                s.skew(),
                s.spilled_runs,
                s.stolen_tasks(slots),
            )?;
        }
        writeln!(
            f,
            "total wall: {:.1} ms, simulated @ {} slots: {:.1} ms, shuffle: {} records / {} bytes, max skew {:.2}",
            self.total_wall().as_secs_f64() * 1e3,
            slots,
            self.simulated_total(slots).as_secs_f64() * 1e3,
            self.total_shuffle_records(),
            self.total_shuffle_bytes(),
            self.max_skew(),
        )
    }
}

#[cfg(test)]
impl StageMetrics {
    /// A row named `name` whose task spans are `(task, slot, (queued,
    /// started, finished))`, each instant in ns after `base`.
    pub(crate) fn synthetic(
        name: &str,
        base: std::time::Instant,
        tasks: &[(usize, usize, (u64, u64, u64))],
    ) -> Self {
        let at = |ns| base + Duration::from_nanos(ns);
        let span = |&(task, slot, (q, s, f))| TaskSpan {
            task,
            slot,
            queued: at(q),
            started: at(s),
            finished: at(f),
        };
        Self {
            name: name.to_string(),
            spans: tasks.iter().map(span).collect(),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One slot-0 span per busy time in ms, all queued and started together.
    fn busy_ms(ms: &[u64]) -> Vec<TaskSpan> {
        let tasks: Vec<_> = ms
            .iter()
            .enumerate()
            .map(|(task, &m)| (task, 0, (0, 0, m * 1_000_000)))
            .collect();
        StageMetrics::synthetic("", std::time::Instant::now(), &tasks).spans
    }

    fn stage(out: usize, max_part: usize, tasks: usize) -> StageMetrics {
        StageMetrics {
            name: "test".into(),
            num_tasks: tasks,
            output_records: out,
            max_partition_records: max_part,
            ..StageMetrics::default()
        }
    }

    #[test]
    fn registry_assigns_sequential_ids() {
        let reg = MetricsRegistry::default();
        assert_eq!(reg.record(stage(1, 1, 1)), 0);
        assert_eq!(reg.record(stage(1, 1, 1)), 1);
        let report = reg.report();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[1].stage_id, 1);
        reg.reset();
        assert!(reg.report().stages.is_empty());
    }

    #[test]
    fn skew_of_balanced_stage_is_one() {
        assert_eq!(stage(100, 25, 4).skew(), 1.0);
    }

    #[test]
    fn skew_detects_hot_partition() {
        // 100 records, 4 tasks, largest holds 70 → skew 2.8.
        assert!((stage(100, 70, 4).skew() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn skew_of_empty_stage_is_one() {
        assert_eq!(stage(0, 0, 4).skew(), 1.0);
        assert_eq!(stage(10, 10, 0).skew(), 1.0);
    }

    #[test]
    fn report_totals() {
        let reg = MetricsRegistry::default();
        let mut s1 = stage(10, 10, 1);
        s1.shuffle_records = 5;
        s1.shuffle_bytes = 100;
        s1.wall = Duration::from_millis(3);
        let mut s2 = stage(20, 15, 4);
        s2.shuffle_records = 7;
        s2.shuffle_bytes = 50;
        s2.wall = Duration::from_millis(4);
        s2.spilled_runs = 2;
        reg.record(s1);
        reg.record(s2);
        let r = reg.report();
        assert_eq!(r.total_shuffle_records(), 12);
        assert_eq!(r.total_shuffle_bytes(), 150);
        assert_eq!(r.total_wall(), Duration::from_millis(7));
        assert_eq!(r.total_spilled_runs(), 2);
        assert!(r.max_skew() > 1.0);
        // Display renders without panicking and contains the stage name.
        let text = r.to_string();
        assert!(text.contains("test"));
    }

    #[test]
    fn display_reports_simulated_wall_for_the_slot_count() {
        let reg = MetricsRegistry::default();
        let mut s = stage(1, 1, 4);
        s.spans = busy_ms(&[8; 4]);
        reg.record(s);
        let mut report = reg.report();
        report.slots = 2;
        let text = report.to_string();
        assert!(text.contains("sim(ms)"));
        // 4 × 8 ms on 2 slots → 16 ms simulated.
        assert!(text.contains("16.0"));
        assert!(text.contains("simulated @ 2 slots"));
    }

    #[test]
    fn simulated_wall_models_slot_counts() {
        let mut s = stage(0, 0, 4);
        s.spans = busy_ms(&[8, 4, 4, 4]);
        assert_eq!(s.task_time(), Duration::from_millis(20));
        // 1 slot: everything serializes → 20 ms.
        assert_eq!(s.simulated_wall(1), Duration::from_millis(20));
        // 2 slots, LPT: {8, 4} and {4, 4} → 12 ms.
        assert_eq!(s.simulated_wall(2), Duration::from_millis(12));
        // 4 slots: bounded by the longest task.
        assert_eq!(s.simulated_wall(4), Duration::from_millis(8));
        assert_eq!(s.simulated_wall(100), Duration::from_millis(8));
    }

    #[test]
    fn simulated_wall_falls_back_to_wall_without_tasks() {
        let mut s = stage(0, 0, 0);
        s.wall = Duration::from_millis(3);
        assert_eq!(s.simulated_wall(8), Duration::from_millis(3));
    }

    #[test]
    fn simulated_total_sums_stages() {
        let reg = MetricsRegistry::default();
        let mut s1 = stage(1, 1, 1);
        s1.spans = busy_ms(&[2; 4]);
        let mut s2 = stage(1, 1, 1);
        s2.spans = busy_ms(&[6]);
        reg.record(s1);
        reg.record(s2);
        assert_eq!(reg.report().simulated_total(2), Duration::from_millis(10));
        assert_eq!(reg.report().simulated_total(1), Duration::from_millis(14));
    }

    #[test]
    fn phase_wall_times_group_by_prefix() {
        let reg = MetricsRegistry::default();
        for (name, ms) in [
            ("cl/cluster/emit", 2u64),
            ("cl/cluster/group", 3),
            ("cl/join/emit", 5),
            ("cl/expand/direct", 7),
            ("final-distinct", 1),
        ] {
            let mut s = stage(1, 1, 1);
            s.name = name.into();
            s.wall = Duration::from_millis(ms);
            reg.record(s);
        }
        let phases = reg.report().phase_wall_times();
        assert_eq!(
            phases,
            vec![
                ("cl/cluster".to_string(), Duration::from_millis(5)),
                ("cl/join".to_string(), Duration::from_millis(5)),
                ("cl/expand".to_string(), Duration::from_millis(7)),
                ("final-distinct".to_string(), Duration::from_millis(1)),
            ]
        );
    }

    #[test]
    fn stages_named_filters() {
        let reg = MetricsRegistry::default();
        let mut s = stage(1, 1, 1);
        s.name = "vj/group-by-token".into();
        reg.record(s);
        let mut s = stage(1, 1, 1);
        s.name = "cl/expand".into();
        reg.record(s);
        let r = reg.report();
        assert_eq!(r.stages_named("vj/").len(), 1);
        assert_eq!(r.stages_named("cl/").len(), 1);
        assert_eq!(r.stages_named("nothing").len(), 0);
    }
}
