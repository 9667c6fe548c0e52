//! [`Cluster`] and [`Dataset`]: the engine's RDD analogue.
//!
//! A [`Dataset<T>`] is an immutable collection split into partitions.
//! Transformations are **eager** (each call runs one stage on the cluster's
//! bounded task pool and records metrics) but otherwise mirror the RDD API:
//! narrow transformations here, key-based wide transformations in
//! [`crate::pair`].

use std::sync::Arc;
use std::time::Instant;

use crate::broadcast::Broadcast;
use crate::config::ClusterConfig;
use crate::executor::{run_stage_tasks, TaskSpan};
use crate::json::Json;
use crate::metrics::{MetricsRegistry, MetricsReport, StageMetrics};
use crate::telemetry::{EngineTelemetry, Heartbeat, TelemetryRegistry};
use crate::trace::TraceCollector;

pub(crate) struct ClusterInner {
    pub(crate) config: ClusterConfig,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) trace: TraceCollector,
    pub(crate) telemetry: TelemetryRegistry,
    pub(crate) engine: EngineTelemetry,
    pub(crate) heartbeat: Option<Heartbeat>,
}

/// Handle to the simulated cluster: owns the configuration and the metrics
/// registry. Cheap to clone (it is an `Arc` handle), like a `SparkContext`
/// reference.
#[derive(Clone)]
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Boots a cluster with the given configuration. Tracing is disabled
    /// (the collector is a no-op); use [`Cluster::with_trace`] to observe a
    /// run.
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_trace(config, TraceCollector::disabled())
    }

    /// Boots a cluster whose phase spans and shuffle/spill events go to
    /// `trace` (pass [`TraceCollector::enabled`] to record them; clusters
    /// handed clones of one collector share its buffer and timeline). Task
    /// spans are kept in the stage rows either way.
    pub fn with_trace(config: ClusterConfig, trace: TraceCollector) -> Self {
        let telemetry = if config.telemetry {
            TelemetryRegistry::enabled()
        } else {
            TelemetryRegistry::disabled()
        };
        let engine = EngineTelemetry::register(&telemetry);
        let heartbeat = config
            .heartbeat_interval
            .map(|interval| Heartbeat::start(telemetry.clone(), interval));
        Self {
            inner: Arc::new(ClusterInner {
                config,
                metrics: MetricsRegistry::default(),
                trace,
                telemetry,
                engine,
                heartbeat,
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// The cluster's live telemetry registry (disabled — a no-op — unless
    /// the configuration opted in via [`ClusterConfig::with_telemetry`] or
    /// [`ClusterConfig::with_heartbeat`]). To serve it over HTTP, start a
    /// [`crate::LiveServer`] over
    /// `TelemetrySource::new(cluster.telemetry().clone())`.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.inner.telemetry
    }

    /// The `minispark/heartbeat/v1` time series collected so far (`None`
    /// unless [`ClusterConfig::with_heartbeat`] started a sampler).
    pub fn heartbeat_document(&self) -> Option<Json> {
        self.inner.heartbeat.as_ref().map(Heartbeat::document)
    }

    /// The cluster's trace collector (a no-op unless the cluster was built
    /// with [`Cluster::with_trace`]).
    pub fn trace(&self) -> &TraceCollector {
        &self.inner.trace
    }

    /// Snapshot of all stage metrics recorded so far. The report's simulated
    /// wall column uses this cluster's slot count.
    pub fn metrics(&self) -> MetricsReport {
        let mut report = self.inner.metrics.report();
        report.slots = self.inner.config.task_slots();
        report
    }

    /// Clears recorded stage rows, live telemetry (the heartbeat series
    /// restarts with the registry's new epoch) and the trace collector this
    /// cluster was handed — shared with every cluster built on a clone of
    /// it — so back-to-back runs on one cluster never mix.
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
        self.inner.telemetry.reset();
        self.inner.trace.clear();
    }

    /// Broadcasts a read-only value to all tasks.
    pub fn broadcast<T>(&self, value: T) -> Broadcast<T> {
        Broadcast::new(value)
    }

    /// Distributes `data` into `partitions` chunks (contiguous split, like
    /// Spark's `parallelize`).
    pub fn parallelize<T: Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Dataset<T> {
        let partitions = partitions.max(1);
        let chunk = chunk_len(data.len(), partitions);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(partitions);
        let mut iter = data.into_iter();
        for _ in 0..partitions {
            let part: Vec<T> = iter.by_ref().take(chunk).collect();
            parts.push(part);
        }
        // Any remainder (can only happen if chunk*partitions < total, which
        // div_ceil prevents) would be dropped; assert the invariant instead.
        debug_assert_eq!(iter.count(), 0);
        Dataset::from_partitions(self.clone(), parts)
    }

    /// An empty dataset with one empty partition.
    pub fn empty<T: Send + Sync + 'static>(&self) -> Dataset<T> {
        Dataset::from_partitions(self.clone(), vec![Vec::new()])
    }

    /// Records one finished stage: the only place a [`StageMetrics`] row is
    /// assembled and the engine's shuffle and spill totals move — from the
    /// row's own numbers, so the live series and the metrics report cannot
    /// disagree. `spans` are the executor's task spans, a wide stage's map
    /// and reduce waves back to back; the row keeps them as they are. A stage
    /// that ran no executor task ([`Cluster::map_chunks`] over no input
    /// slices) passes none: it occupied no slot, and its row holds one
    /// slot-0 span over its wall time so the timeline stays gap-free.
    pub(crate) fn record_stage(
        &self,
        name: &str,
        start: Instant,
        mut spans: Vec<TaskSpan>,
        io: StageIo,
    ) {
        let wall = start.elapsed();
        if spans.is_empty() {
            spans.push(TaskSpan {
                task: 0,
                slot: 0,
                queued: start,
                started: start,
                finished: start + wall,
            });
        }
        self.inner.metrics.record(StageMetrics {
            stage_id: 0,
            name: name.to_string(),
            wall,
            spans,
            num_tasks: io.out_sizes.len(),
            input_records: io.input_records,
            output_records: io.out_sizes.iter().sum(),
            shuffle_records: io.shuffled,
            shuffle_bytes: io.shuffled * io.record_size,
            max_partition_records: io.out_sizes.iter().copied().max().unwrap_or(0),
            spilled_runs: io.spilled_runs,
        });
        let engine = &self.inner.engine;
        engine.shuffle_records.add_usize(io.shuffled);
        engine.shuffle_bytes.add_usize(io.shuffled * io.record_size);
        engine.spill_runs.add_usize(io.spilled_runs);
        engine.spill_bytes.add_usize(io.spilled_bytes);
    }

    /// Runs one narrow stage over records the caller keeps: every slice of
    /// `data` is split into `partitions` contiguous chunks exactly as
    /// [`Cluster::parallelize`] would split it, and `f(partition_index,
    /// chunk)` builds one output partition per chunk, bounded by the
    /// cluster's task slots. Records metrics under `name`.
    ///
    /// This is `parallelize` fused with the first narrow transformation,
    /// minus the copy: the input never becomes a dataset.
    pub fn map_chunks<T, U>(
        &self,
        name: &str,
        data: &[&[T]],
        partitions: usize,
        f: impl Fn(usize, &[T]) -> Vec<U> + Sync,
    ) -> Dataset<U>
    where
        T: Sync,
        U: Send + Sync + 'static,
    {
        let partitions = partitions.max(1);
        let chunks = data.iter().flat_map(|records| {
            records
                .chunks(chunk_len(records.len(), partitions))
                .chain(std::iter::repeat(&[][..]))
                .take(partitions)
        });
        let input_records = data.iter().map(|records| records.len()).sum();
        self.run_narrow_stage(name, chunks.collect(), input_records, f)
    }

    /// Runs one narrow stage: `f(partition_index, partition) → new partition`
    /// per input partition, bounded by the cluster's task slots. Records
    /// metrics under `name`, with `input_records` records read. A task owns
    /// its input: a partition passed by value is dropped on the task's
    /// thread.
    pub(crate) fn run_narrow_stage<I, U>(
        &self,
        name: &str,
        inputs: Vec<I>,
        input_records: usize,
        f: impl Fn(usize, I) -> Vec<U> + Sync,
    ) -> Dataset<U>
    where
        I: Send,
        U: Send + Sync + 'static,
    {
        let start = Instant::now();
        let (outputs, spans) =
            run_stage_tasks(self.config(), &self.inner.engine.executor, inputs, &f);
        let out_sizes: Vec<usize> = outputs.iter().map(Vec::len).collect();
        let io = StageIo {
            input_records,
            out_sizes: &out_sizes,
            ..StageIo::default()
        };
        self.record_stage(name, start, spans, io);
        Dataset::from_partitions(self.clone(), outputs)
    }
}

/// Records per partition when `records` are split into `partitions ≥ 1`
/// contiguous chunks ([`Cluster::parallelize`], [`Cluster::map_chunks`]).
fn chunk_len(records: usize, partitions: usize) -> usize {
    records.div_ceil(partitions).max(1)
}

/// What one stage read, wrote and shuffled, as [`Cluster::record_stage`]
/// takes it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageIo<'a> {
    /// Records read.
    pub input_records: usize,
    /// Records in each output partition, one per result task.
    pub out_sizes: &'a [usize],
    /// Records that crossed the shuffle (0 for a narrow stage).
    pub shuffled: usize,
    /// In-memory size of one shuffled record, in bytes.
    pub record_size: usize,
    /// Run files the reduce side spilled to disk.
    pub spilled_runs: usize,
    /// Bytes written into those run files.
    pub spilled_bytes: usize,
}

/// An immutable, partitioned collection — the engine's RDD.
///
/// Cloning a `Dataset` is cheap: partitions are shared `Arc`s, matching RDD
/// immutability (a transformation never mutates its input).
#[derive(Clone)]
pub struct Dataset<T> {
    pub(crate) cluster: Cluster,
    pub(crate) partitions: Vec<Arc<Vec<T>>>,
}

impl<T: Send + Sync + 'static> Dataset<T> {
    /// Builds a dataset from explicit partitions.
    pub fn from_partitions(cluster: Cluster, parts: Vec<Vec<T>>) -> Self {
        let partitions = if parts.is_empty() {
            vec![Arc::new(Vec::new())]
        } else {
            parts.into_iter().map(Arc::new).collect()
        };
        Self {
            cluster,
            partitions,
        }
    }

    /// The owning cluster handle.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of records (driver-side, no stage).
    pub fn count(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Record count per partition (for skew inspection in tests/benches).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.len()).collect()
    }

    /// Borrowing access to a partition's records.
    pub fn partition(&self, idx: usize) -> &[T] {
        &self.partitions[idx]
    }

    /// Every partition's records, borrowed, in partition order.
    fn slices(&self) -> Vec<&[T]> {
        self.partitions.iter().map(|p| p.as_slice()).collect()
    }

    /// One-to-one transformation.
    pub fn map<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&T) -> U + Sync,
    {
        self.cluster
            .clone()
            .run_narrow_stage(name, self.slices(), self.count(), |_, part| {
                part.iter().map(&f).collect()
            })
    }

    /// Keeps records satisfying the predicate.
    pub fn filter<F>(&self, name: &str, f: F) -> Dataset<T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Sync,
    {
        self.cluster
            .clone()
            .run_narrow_stage(name, self.slices(), self.count(), |_, part| {
                part.iter().filter(|t| f(t)).cloned().collect()
            })
    }

    /// One-to-many transformation.
    pub fn flat_map<U, I, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Sync,
    {
        self.cluster
            .clone()
            .run_narrow_stage(name, self.slices(), self.count(), |_, part| {
                part.iter().flat_map(&f).collect()
            })
    }

    /// [`Dataset::flat_map`] that consumes the dataset: each task drops its
    /// partition once `f` has read it, so records no other handle shares are
    /// freed on the task threads, in parallel, and not by the caller.
    pub fn into_flat_map<U, I, F>(self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Sync,
    {
        let input_records = self.count();
        self.cluster
            .run_narrow_stage(name, self.partitions, input_records, |_, part| {
                part.iter().flat_map(&f).collect()
            })
    }

    /// Runs one narrow stage with a task per partition: `f` reads the whole
    /// partition and builds one output partition (Spark's `mapPartitions`),
    /// so a task can size its output once or keep state across its records.
    pub fn map_partitions<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        self.cluster
            .clone()
            .run_narrow_stage(name, self.slices(), self.count(), |_, part| f(part))
    }

    /// Concatenates two datasets partition-wise (no data movement).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let mut partitions = self.partitions.clone();
        partitions.extend(other.partitions.iter().cloned());
        Dataset {
            cluster: self.cluster.clone(),
            partitions,
        }
    }

    /// Merges the partitions into at most `n` without a shuffle (Spark's
    /// `coalesce`): partition `j` is appended to output partition `j mod n`,
    /// so the parts of a [`union`](Dataset::union) interleave. Keeps later
    /// narrow stages at `n` tasks after a union multiplied the partitions.
    pub fn coalesce(&self, n: usize) -> Dataset<T>
    where
        T: Clone,
    {
        let n = n.max(1);
        if self.partitions.len() <= n {
            return self.clone();
        }
        let mut targets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        for (j, part) in self.partitions.iter().enumerate() {
            targets[j % n].extend(part.iter().cloned());
        }
        Dataset::from_partitions(self.cluster.clone(), targets)
    }

    /// Materializes all records on the driver.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.count());
        for part in &self.partitions {
            out.extend(part.iter().cloned());
        }
        out
    }

    /// The first `n` records in partition order.
    pub fn take(&self, n: usize) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(n);
        for part in &self.partitions {
            for record in part.iter() {
                if out.len() == n {
                    return out;
                }
                out.push(record.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4))
    }

    #[test]
    fn parallelize_splits_evenly_and_loses_nothing() {
        let ds = cluster().parallelize((0..103u32).collect(), 10);
        assert_eq!(ds.num_partitions(), 10);
        assert_eq!(ds.count(), 103);
        let mut all = ds.collect();
        all.sort();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // Contiguous chunking: each partition holds ≤ ceil(103/10) = 11.
        assert!(ds.partition_sizes().iter().all(|&s| s <= 11));
    }

    #[test]
    fn map_chunks_splits_like_parallelize() {
        let c = cluster();
        let data: Vec<u32> = (0..103).collect();
        for partitions in [1, 4, 10, 200] {
            let owned = c.parallelize(data.clone(), partitions);
            let borrowed = c.map_chunks("chunks", &[&data], partitions, |_, chunk| chunk.to_vec());
            assert_eq!(borrowed.partition_sizes(), owned.partition_sizes());
            assert_eq!(borrowed.collect(), owned.collect());
        }
        // Several slices: each is split on its own, partitions back to back.
        let two = c.map_chunks("two", &[&data[..3], &data[3..]], 2, |i, chunk| {
            vec![(i, chunk.len())]
        });
        assert_eq!(two.collect(), vec![(0, 2), (1, 1), (2, 50), (3, 50)]);
        assert_eq!(c.metrics().stages_named("two")[0].input_records, 103);
    }

    #[test]
    fn parallelize_more_partitions_than_records() {
        let ds = cluster().parallelize(vec![1u8, 2], 8);
        assert_eq!(ds.count(), 2);
        assert_eq!(ds.num_partitions(), 8);
    }

    #[test]
    fn empty_dataset() {
        let ds = cluster().empty::<u32>();
        assert_eq!(ds.count(), 0);
        assert_eq!(ds.num_partitions(), 1);
        assert!(ds.collect().is_empty());
    }

    #[test]
    fn map_filter_flat_map_pipeline() {
        let c = cluster();
        let ds = c.parallelize((1..=10u32).collect(), 3);
        let result = ds
            .map("double", |n| n * 2)
            .filter("gt-five", |n| *n > 5)
            .flat_map("twice", |n| vec![*n, *n]);
        let mut all = result.collect();
        all.sort();
        let mut expected: Vec<u32> = (1..=10)
            .map(|n| n * 2)
            .filter(|n| *n > 5)
            .flat_map(|n| vec![n, n])
            .collect();
        expected.sort();
        assert_eq!(all, expected);
        // Three stages were recorded.
        assert_eq!(c.metrics().stages.len(), 3);
        assert_eq!(c.metrics().stages[0].name, "double");
    }

    #[test]
    fn into_flat_map_frees_the_records_it_consumes() {
        let c = cluster();
        let values: Vec<Arc<u32>> = (0..10).map(Arc::new).collect();
        let weak: Vec<_> = values.iter().map(Arc::downgrade).collect();
        let ds = c.parallelize(values, 3);
        let expected = ds.flat_map("borrow", |n| [**n, **n + 100]).collect();
        let consumed = ds.into_flat_map("consume", |n| [**n, **n + 100]);
        assert_eq!(consumed.collect(), expected);
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
        assert_eq!(c.metrics().stages_named("consume")[0].input_records, 10);
    }

    #[test]
    fn union_concatenates_partitions() {
        let c = cluster();
        let a = c.parallelize(vec![1, 2], 2);
        let b = c.parallelize(vec![3], 1);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        let mut all = u.collect();
        all.sort();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn coalesce_merges_partitions_without_a_stage() {
        let c = cluster();
        let a = c.parallelize(vec![1, 2, 3, 4], 4);
        let u = a.union(&c.parallelize(vec![5, 6], 2));
        let stages = c.metrics().stages.len();
        let merged = u.coalesce(4);
        assert_eq!(merged.num_partitions(), 4);
        assert_eq!(merged.partition(0), &[1, 5]);
        assert_eq!(merged.partition(1), &[2, 6]);
        assert_eq!(merged.partition(2), &[3]);
        assert_eq!(c.metrics().stages.len(), stages);
        // Already at or below `n`: unchanged.
        assert_eq!(merged.coalesce(8).num_partitions(), 4);
    }

    #[test]
    fn take_respects_order_and_bound() {
        let ds = cluster().parallelize((0..10u32).collect(), 2);
        assert_eq!(ds.take(3), vec![0, 1, 2]);
        assert_eq!(ds.take(0), Vec::<u32>::new());
        assert_eq!(ds.take(99).len(), 10);
    }

    #[test]
    fn metrics_capture_record_counts() {
        let c = cluster();
        let ds = c.parallelize((0..100u32).collect(), 4);
        ds.filter("keep-even", |n| n % 2 == 0);
        let m = c.metrics();
        let stage = &m.stages[0];
        assert_eq!(stage.input_records, 100);
        assert_eq!(stage.output_records, 50);
        assert_eq!(stage.num_tasks, 4);
        c.reset_metrics();
        assert!(c.metrics().stages.is_empty());
    }

    #[test]
    fn dataset_clone_shares_partitions() {
        let ds = cluster().parallelize(vec![1u32, 2, 3], 1);
        let clone = ds.clone();
        assert!(Arc::ptr_eq(&ds.partitions[0], &clone.partitions[0]));
    }
}
