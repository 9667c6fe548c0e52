//! Cluster configuration — the stand-in for the paper's Spark/YARN setup
//! (Table 3 plus the hardware description in §7).

use std::path::PathBuf;
use std::time::Duration;

use crate::sched::Schedule;

/// Describes the simulated cluster.
///
/// The engine executes every stage on at most
/// [`task_slots`](ClusterConfig::task_slots) `=
/// nodes × executors_per_node × cores_per_executor` concurrent worker
/// threads, mirroring how YARN hands Spark a fixed number of executor cores.
/// Scaling `nodes` therefore scales usable parallelism the way adding
/// machines does for CPU-bound Spark jobs (Figure 7's experiment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of simulated cluster nodes.
    pub nodes: usize,
    /// Executor processes per node (`spark.executor.instances / nodes`).
    pub executors_per_node: usize,
    /// Cores per executor (`spark.executor.cores`).
    pub cores_per_executor: usize,
    /// Default number of partitions for `parallelize` and shuffles when the
    /// caller does not specify one (the paper uses 286 for most runs).
    pub default_partitions: usize,
    /// Maximum records a memory-aware group-by keeps in memory per task
    /// before spilling a run to disk. `usize::MAX` disables spilling.
    pub spill_record_budget: usize,
    /// Directory for spill files. `None` uses the system temp directory.
    pub spill_dir: Option<PathBuf>,
    /// Deterministic task schedule for every stage. `None` (the default)
    /// uses the real thread pool; `Some(schedule)` replays tasks in the
    /// schedule's claim order on the calling thread — the executor's
    /// concurrency-checking mode (see [`crate::sched`] and [`crate::check`]).
    pub schedule: Option<Schedule>,
    /// Whether the cluster records live telemetry ([`crate::telemetry`]):
    /// executor, shuffle and spill series, plus each join run's counters
    /// once it finishes. Off by default — every instrument is then a true
    /// no-op.
    pub telemetry: bool,
    /// Sampling interval of the background [`crate::telemetry::Heartbeat`]
    /// sampler. `None` (the default) runs no sampler; `Some(interval)`
    /// implies `telemetry` when set via [`ClusterConfig::with_heartbeat`].
    pub heartbeat_interval: Option<Duration>,
}

impl ClusterConfig {
    /// A single-node "local\[n\]" configuration with `n` task slots, the usual
    /// choice for tests.
    pub fn local(slots: usize) -> Self {
        Self {
            nodes: 1,
            executors_per_node: 1,
            cores_per_executor: slots.max(1),
            ..Self::default()
        }
    }

    /// The paper's evaluation configuration (Table 3): 8 nodes, 24 executor
    /// instances (3 per node), 5 cores per executor, 286 default partitions.
    /// Table 3's 8 GB per executor (`spark.executor.memory`) has no field
    /// here: memory is not accounted in bytes, and what bounds a task's
    /// footprint is [`ClusterConfig::spill_record_budget`], a record count.
    pub fn paper_table3() -> Self {
        Self {
            nodes: 8,
            executors_per_node: 3,
            cores_per_executor: 5,
            default_partitions: 286,
            spill_record_budget: usize::MAX,
            spill_dir: None,
            schedule: None,
            telemetry: false,
            heartbeat_interval: None,
        }
    }

    /// The scaled-down cluster of the scalability experiment (§7.1,
    /// Figure 7): executors get 3 cores and YARN decides the instance count;
    /// we model that as `nodes` nodes with 3 executors of 3 cores each.
    pub fn paper_scalability(nodes: usize) -> Self {
        Self {
            nodes,
            executors_per_node: 3,
            cores_per_executor: 3,
            ..Self::paper_table3()
        }
    }

    /// Total number of concurrently usable task slots.
    pub fn task_slots(&self) -> usize {
        (self.nodes * self.executors_per_node * self.cores_per_executor).max(1)
    }

    /// Total executor instances (`spark.executor.instances`).
    pub fn executor_instances(&self) -> usize {
        self.nodes * self.executors_per_node
    }

    /// Returns a copy with a different default partition count (Figures
    /// 12/13 sweeps).
    pub fn with_default_partitions(mut self, partitions: usize) -> Self {
        self.default_partitions = partitions.max(1);
        self
    }

    /// Returns a copy with spilling enabled at the given per-task record
    /// budget.
    pub fn with_spill_budget(mut self, records: usize) -> Self {
        self.spill_record_budget = records;
        self
    }

    /// Returns a copy that executes every stage under the given
    /// deterministic [`Schedule`] instead of the thread pool.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Returns a copy with live telemetry recording enabled.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Returns a copy with the heartbeat sampler enabled at `interval`
    /// (implies telemetry — a sampler over a dead registry is useless).
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.telemetry = true;
        self.heartbeat_interval = Some(interval);
        self
    }
}

impl Default for ClusterConfig {
    /// A modest local default: 1 node, 1 executor, 4 cores, 16 partitions.
    fn default() -> Self {
        Self {
            nodes: 1,
            executors_per_node: 1,
            cores_per_executor: 4,
            default_partitions: 16,
            spill_record_budget: usize::MAX,
            spill_dir: None,
            schedule: None,
            telemetry: false,
            heartbeat_interval: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_config_has_requested_slots() {
        assert_eq!(ClusterConfig::local(7).task_slots(), 7);
        // Zero is clamped to one slot.
        assert_eq!(ClusterConfig::local(0).task_slots(), 1);
    }

    #[test]
    fn paper_config_matches_table3() {
        let c = ClusterConfig::paper_table3();
        assert_eq!(c.executor_instances(), 24);
        assert_eq!(c.cores_per_executor, 5);
        assert_eq!(c.task_slots(), 120);
        assert_eq!(c.default_partitions, 286);
    }

    #[test]
    fn scalability_config_scales_with_nodes() {
        let four = ClusterConfig::paper_scalability(4);
        let eight = ClusterConfig::paper_scalability(8);
        assert_eq!(eight.task_slots(), 2 * four.task_slots());
        assert_eq!(four.cores_per_executor, 3);
    }

    #[test]
    fn builder_helpers() {
        let c = ClusterConfig::default()
            .with_default_partitions(99)
            .with_spill_budget(1000);
        assert_eq!(c.default_partitions, 99);
        assert_eq!(c.spill_record_budget, 1000);
        assert_eq!(
            ClusterConfig::default()
                .with_default_partitions(0)
                .default_partitions,
            1
        );
    }

    #[test]
    fn telemetry_builders_imply_the_flag() {
        let c = ClusterConfig::local(2);
        assert!(!c.telemetry, "telemetry is opt-in");
        assert!(c.heartbeat_interval.is_none());
        assert!(ClusterConfig::local(2).with_telemetry().telemetry);
        let hb = ClusterConfig::local(2).with_heartbeat(Duration::from_millis(50));
        assert!(hb.telemetry, "a heartbeat needs a live registry");
        assert_eq!(hb.heartbeat_interval, Some(Duration::from_millis(50)));
    }

    #[test]
    fn with_schedule_installs_a_deterministic_mode() {
        let c = ClusterConfig::local(4);
        assert_eq!(c.schedule, None, "thread pool is the default");
        let scheduled = c.with_schedule(Schedule::Reversed);
        assert_eq!(scheduled.schedule, Some(Schedule::Reversed));
    }
}
