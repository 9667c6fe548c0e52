//! Wide (shuffle-based) transformations on key-value datasets, plus
//! `distinct` for arbitrary hashable records.
//!
//! Every operation here moves data across a shuffle boundary: records are
//! scattered to target partitions by a [`Partitioner`], the move is accounted
//! in the stage metrics (records, estimated bytes, resulting skew), and the
//! reduce side runs one task per target partition on the bounded executor.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use crate::codec::Codec;
use crate::dataset::{Cluster, Dataset, StageIo};
use crate::executor::{run_stage_tasks, TaskSpan};
use crate::shuffle::{spread, stable_hash, FastHashMap, FastHashSet, HashPartitioner, Partitioner};
use crate::spill::external_group_by;

/// Scatters every record of `input` into `targets` buckets according to
/// `target_of`, in parallel on the map side. Returns the target partitions.
///
/// The scatter consumes `input`: a map task moves the records of a
/// partition no other handle shares and clones only those of a shared one —
/// a caller that keeps its dataset passes a clone of the handle and pays
/// the clones it paid before. Every bucket and every target partition is
/// allocated once at its final size — what a shuffle allocates grows with
/// map tasks × targets, not with the records it moves.
fn shuffle_scatter<T, F>(
    input: Dataset<T>,
    targets: usize,
    target_of: F,
) -> (Vec<Vec<T>>, Vec<TaskSpan>)
where
    T: Clone + Send + Sync + 'static,
    F: Fn(&T) -> usize + Sync,
{
    let targets = targets.max(1);
    let Dataset {
        cluster,
        partitions,
    } = input;
    let probe = &cluster.inner.engine.executor;
    let (bucketed, spans) = run_stage_tasks(cluster.config(), probe, partitions, |_, part| {
        let target_of_record: Vec<usize> = part.iter().map(&target_of).collect();
        let mut sizes = vec![0usize; targets];
        for &t in &target_of_record {
            debug_assert!(t < targets, "partitioner returned out-of-range target");
            sizes[t] += 1;
        }
        let mut buckets: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
        match Arc::try_unwrap(part) {
            Ok(owned) => fill_buckets(&mut buckets, owned.into_iter(), &target_of_record),
            Err(shared) => fill_buckets(&mut buckets, shared.iter().cloned(), &target_of_record),
        }
        buckets
    });
    // Reduce-side gather: concatenate the map-side buckets per target.
    let mut out: Vec<Vec<T>> = (0..targets)
        .map(|t| Vec::with_capacity(bucketed.iter().map(|buckets| buckets[t].len()).sum()))
        .collect();
    for task_buckets in bucketed {
        for (target, bucket) in out.iter_mut().zip(task_buckets) {
            target.extend(bucket);
        }
    }
    (out, spans)
}

/// Pushes each record into the bucket its entry of `targets` names.
fn fill_buckets<T>(buckets: &mut [Vec<T>], records: impl Iterator<Item = T>, targets: &[usize]) {
    for (record, &t) in records.zip(targets) {
        buckets[t].push(record);
    }
}

/// Folds records into one value per key with `f`, probing the map once per
/// record: a new key's value is stored, a known key's is combined in place.
/// (The value sits in an `Option` only so `f` can take it by value.)
fn combine_by_key<K, V>(
    records: impl Iterator<Item = (K, V)>,
    f: &impl Fn(V, V) -> V,
) -> Vec<(K, V)>
where
    K: Hash + Eq,
{
    let mut acc: FastHashMap<K, Option<V>> = FastHashMap::default();
    for (k, v) in records {
        match acc.entry(k) {
            Entry::Occupied(mut slot) => {
                let slot = slot.get_mut();
                *slot = slot.take().map(|prev| f(prev, v));
            }
            Entry::Vacant(slot) => {
                slot.insert(Some(v));
            }
        }
    }
    acc.into_iter().filter_map(|(k, v)| Some((k, v?))).collect()
}

/// Records a wide stage; `spans` are its task waves (map side, then reduce
/// side) back to back.
fn record_wide_stage(
    cluster: &Cluster,
    name: &str,
    start: Instant,
    spans: Vec<TaskSpan>,
    io: StageIo,
) {
    cluster.record_stage(name, start, spans, io);
    // The reduce side has consumed the flushed records by now.
    cluster.inner.engine.shuffle_inflight.sub_usize(io.shuffled);
}

/// Marks the shuffle barrier of a wide stage: called between the map-side
/// scatter and the reduce-side tasks, once every bucket is flushed. The
/// instant event lands *between* the two task waves, which is exactly what
/// the flush-barrier rule of [`crate::check::audit_snapshot`] verifies; the
/// yield point makes the barrier an interleaving point for the
/// schedule-exploration harness.
fn mark_shuffle_flush(cluster: &Cluster, name: &str, shuffled: usize) {
    crate::sched::yield_point("shuffle-flush");
    let trace = &cluster.inner.trace;
    if trace.is_enabled() && shuffled > 0 {
        trace.mark(&format!("shuffle-flush/{name}"), shuffled as u64);
    }
    // In flight until the reduce wave consumes them (record_wide_stage).
    cluster.inner.engine.shuffle_inflight.add_usize(shuffled);
}

/// The scattered map side of a wide stage, as [`reduce_side`] takes it.
struct MapSide<T> {
    /// When the stage began.
    start: Instant,
    /// Records the stage read.
    input_records: usize,
    /// One reduce input per target partition.
    targets: Vec<Vec<T>>,
    /// Records that crossed the shuffle.
    shuffled: usize,
    /// The map-side task waves, back to back.
    spans: Vec<TaskSpan>,
}

impl<T> MapSide<T> {
    /// A map side that scattered one dataset into `targets`.
    fn scattered(
        start: Instant,
        input_records: usize,
        (targets, spans): (Vec<Vec<T>>, Vec<TaskSpan>),
    ) -> Self {
        Self {
            start,
            input_records,
            shuffled: targets.iter().map(Vec::len).sum(),
            targets,
            spans,
        }
    }
}

/// The rest of a wide stage once its map side has scattered: marks the
/// flush, runs one reduce task per target partition — `reduce` returns the
/// output partition plus the runs and bytes it spilled — and records the
/// stage row over both waves.
fn reduce_side<T, U>(
    cluster: Cluster,
    name: &str,
    map: MapSide<T>,
    reduce: impl Fn(Vec<T>) -> (Vec<U>, usize, usize) + Sync,
) -> Dataset<U>
where
    T: Send,
    U: Send + Sync + 'static,
{
    mark_shuffle_flush(&cluster, name, map.shuffled);
    let probe = &cluster.inner.engine.executor;
    let (reduced, reduce_spans) =
        run_stage_tasks(cluster.config(), probe, map.targets, |_, part| reduce(part));
    let (mut spilled_runs, mut spilled_bytes) = (0, 0);
    let parts: Vec<Vec<U>> = reduced
        .into_iter()
        .map(|(part, runs, bytes)| {
            spilled_runs += runs;
            spilled_bytes += bytes;
            part
        })
        .collect();
    let out_sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
    let io = StageIo {
        input_records: map.input_records,
        out_sizes: &out_sizes,
        shuffled: map.shuffled,
        record_size: std::mem::size_of::<T>(),
        spilled_runs,
        spilled_bytes,
    };
    let spans = [map.spans, reduce_spans].concat();
    record_wide_stage(&cluster, name, map.start, spans, io);
    Dataset::from_partitions(cluster, parts)
}

impl<K, V> Dataset<(K, V)>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Groups all values sharing a key onto one partition and into one
    /// record, Spark's `groupByKey`. The dataset stays intact: this is
    /// [`Dataset::into_group_by_key`] over a clone of the handle.
    pub fn group_by_key(&self, name: &str, partitions: usize) -> Dataset<(K, Vec<V>)> {
        self.clone().into_group_by_key(name, partitions)
    }

    /// [`Dataset::group_by_key`] that consumes the dataset: the scatter moves
    /// the records of every partition no other handle shares into their
    /// groups instead of cloning them.
    pub fn into_group_by_key(self, name: &str, partitions: usize) -> Dataset<(K, Vec<V>)> {
        let start = Instant::now();
        let input_records = self.count();
        let cluster = self.cluster().clone();
        let n = partitions.max(1);
        let partitioner = HashPartitioner::new(n);
        let scattered = shuffle_scatter(self, n, |(k, _): &(K, V)| partitioner.partition(k));
        let map = MapSide::scattered(start, input_records, scattered);
        reduce_side(cluster, name, map, |part| {
            let mut groups: FastHashMap<K, Vec<V>> = FastHashMap::default();
            for (k, v) in part {
                groups.entry(k).or_default().push(v);
            }
            (groups.into_iter().collect(), 0, 0)
        })
    }

    /// `groupByKey` with a bounded in-memory footprint: each reduce task
    /// keeps at most the cluster's `spill_record_budget` records in memory
    /// and spills encoded runs to disk beyond that (see [`crate::spill`]).
    pub fn group_by_key_spilling(self, name: &str, partitions: usize) -> Dataset<(K, Vec<V>)>
    where
        K: Codec + Ord,
        V: Codec,
    {
        let start = Instant::now();
        let input_records = self.count();
        let cluster = self.cluster().clone();
        let budget = cluster.config().spill_record_budget;
        let spill_dir = cluster.config().spill_dir.clone();
        let n = partitions.max(1);
        let partitioner = HashPartitioner::new(n);
        let scattered = shuffle_scatter(self, n, |(k, _): &(K, V)| partitioner.partition(k));
        let map = MapSide::scattered(start, input_records, scattered);
        let trace = cluster.trace().clone();
        reduce_side(cluster, name, map, |part| {
            let result = external_group_by(part.into_iter(), budget, spill_dir.as_deref())
                .expect("spill I/O failed");
            if trace.is_enabled() {
                // One instant event per spilled run file, emitted as the
                // reduce task merges them back — the timeline counterpart of
                // the stage's `spilled_runs` metric.
                for _ in 0..result.spilled_runs {
                    trace.mark(&format!("spill-run/{name}"), 1);
                }
            }
            (result.groups, result.spilled_runs, result.spilled_bytes)
        })
    }

    /// Merges all values per key with `f`, with map-side combining (Spark's
    /// `reduceByKey`), so only one record per key and map task is shuffled.
    pub fn reduce_by_key<F>(&self, name: &str, partitions: usize, f: F) -> Dataset<(K, V)>
    where
        F: Fn(V, V) -> V + Sync,
    {
        let start = Instant::now();
        let input_records = self.count();
        let cluster = self.cluster().clone();
        // Map-side combine.
        let inputs: Vec<Arc<Vec<(K, V)>>> = self.partitions.clone();
        let probe = &cluster.inner.engine.executor;
        let (combined, combine_spans) =
            run_stage_tasks(cluster.config(), probe, inputs, |_, part| {
                combine_by_key(part.iter().map(|(k, v)| (k.clone(), v.clone())), &f)
            });
        let combined = Dataset::from_partitions(cluster.clone(), combined);

        let n = partitions.max(1);
        let partitioner = HashPartitioner::new(n);
        let scattered = shuffle_scatter(combined, n, |(k, _): &(K, V)| partitioner.partition(k));
        let mut map = MapSide::scattered(start, input_records, scattered);
        map.spans = [combine_spans, map.spans].concat();
        reduce_side(cluster, name, map, |part| {
            (combine_by_key(part.into_iter(), &f), 0, 0)
        })
    }

    /// Re-partitions by an arbitrary [`Partitioner`] without grouping —
    /// records sharing a key land on the same partition, in arrival order.
    /// Consumes the dataset: the scatter moves the records of every
    /// partition no other handle shares instead of cloning them.
    pub fn partition_by<P>(self, name: &str, partitioner: &P) -> Dataset<(K, V)>
    where
        P: Partitioner<K>,
    {
        let start = Instant::now();
        let input_records = self.count();
        let cluster = self.cluster().clone();
        let (scattered, scatter_spans) =
            shuffle_scatter(self, partitioner.num_partitions(), |(k, _)| {
                partitioner.partition(k)
            });
        let shuffled: usize = scattered.iter().map(std::vec::Vec::len).sum();
        mark_shuffle_flush(&cluster, name, shuffled);
        let out_sizes: Vec<usize> = scattered.iter().map(std::vec::Vec::len).collect();
        let io = StageIo {
            input_records,
            out_sizes: &out_sizes,
            shuffled,
            record_size: std::mem::size_of::<(K, V)>(),
            ..StageIo::default()
        };
        record_wide_stage(&cluster, name, start, scatter_spans, io);
        Dataset::from_partitions(cluster, scattered)
    }
}

impl<T> Dataset<T>
where
    T: Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Removes duplicate records globally: shuffle by record hash, dedup per
    /// partition. The final duplicate-elimination step of every algorithm in
    /// the paper.
    pub fn distinct(&self, name: &str, partitions: usize) -> Dataset<T> {
        let start = Instant::now();
        let input_records = self.count();
        let targets = partitions.max(1);
        let scattered = shuffle_scatter(self.clone(), targets, |t| spread(stable_hash(t), targets));
        let map = MapSide::scattered(start, input_records, scattered);
        reduce_side(self.cluster().clone(), name, map, |part| {
            // The seen-set owns each unique record once; the output is
            // rebuilt from it, so records are cloned exactly once.
            let mut seen = FastHashSet::with_capacity_and_hasher(part.len(), Default::default());
            let mut out = Vec::new();
            for record in part {
                if !seen.contains(&record) {
                    out.push(record.clone());
                    seen.insert(record);
                }
            }
            (out, 0, 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4))
    }

    #[test]
    fn group_by_key_groups_everything() {
        let c = cluster();
        let pairs: Vec<(u32, u32)> = (0..100).map(|n| (n % 5, n)).collect();
        let grouped = c.parallelize(pairs, 8).group_by_key("group", 4);
        let mut all = grouped.collect();
        all.sort_by_key(|(k, _)| *k);
        assert_eq!(all.len(), 5);
        for (k, vs) in all {
            assert_eq!(vs.len(), 20);
            assert!(vs.iter().all(|v| v % 5 == k));
        }
    }

    #[test]
    fn group_by_key_copartitions_keys() {
        let c = cluster();
        let pairs: Vec<(u32, u32)> = (0..1000).map(|n| (n % 40, n)).collect();
        let grouped = c.parallelize(pairs, 8).group_by_key("group", 4);
        // Each key appears exactly once across all partitions.
        let keys: Vec<u32> = grouped.collect().into_iter().map(|(k, _)| k).collect();
        let unique: std::collections::HashSet<u32> = keys.iter().copied().collect();
        assert_eq!(keys.len(), unique.len());
        assert_eq!(unique.len(), 40);
    }

    /// Every group of `grouped` as `(key, sorted values)`, sorted by key.
    fn groups_of(grouped: &Dataset<(u64, Vec<Arc<u64>>)>) -> Vec<(u64, Vec<u64>)> {
        let mut groups: Vec<(u64, Vec<u64>)> = (0..grouped.num_partitions())
            .flat_map(|p| grouped.partition(p))
            .map(|(key, values)| {
                let mut values: Vec<u64> = values.iter().map(|value| **value).collect();
                values.sort_unstable();
                (*key, values)
            })
            .collect();
        groups.sort_unstable();
        groups
    }

    #[test]
    fn into_group_by_key_moves_what_it_owns() {
        let c = cluster();
        let records =
            || -> Vec<(u64, Arc<u64>)> { (0..200).map(|n| (n % 7, Arc::new(n))).collect() };
        // Unshared: every value is moved into its group, never cloned.
        let moved = c.parallelize(records(), 8).into_group_by_key("move", 4);
        for p in 0..moved.num_partitions() {
            for (_, values) in moved.partition(p) {
                assert!(values.iter().all(|value| Arc::strong_count(value) == 1));
            }
        }
        // Borrowed: the same groups, and the source keeps every record, so
        // each value is held by the source and by its group.
        let kept = c.parallelize(records(), 8);
        let borrowed = kept.group_by_key("borrow", 4);
        assert_eq!(groups_of(&borrowed), groups_of(&moved));
        let source: Vec<(u64, u64)> = (0..kept.num_partitions())
            .flat_map(|p| kept.partition(p))
            .map(|(key, value)| {
                assert_eq!(Arc::strong_count(value), 2);
                (*key, **value)
            })
            .collect();
        assert_eq!(source, (0..200).map(|n| (n % 7, n)).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_by_key_sums() {
        let c = cluster();
        let pairs: Vec<(u32, u64)> = (0..1000u64).map(|n| ((n % 7) as u32, n)).collect();
        let reduced = c
            .parallelize(pairs, 16)
            .reduce_by_key("sum", 4, |a, b| a + b);
        let mut all = reduced.collect();
        all.sort();
        let mut expected: std::collections::HashMap<u32, u64> = Default::default();
        for n in 0..1000u64 {
            *expected.entry((n % 7) as u32).or_default() += n;
        }
        let mut expected: Vec<(u32, u64)> = expected.into_iter().collect();
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn reduce_by_key_shuffles_less_than_group_by_key() {
        // Map-side combining is the whole point of reduceByKey.
        let c = cluster();
        let pairs: Vec<(u32, u64)> = (0..10_000u64).map(|n| ((n % 3) as u32, 1)).collect();
        let ds = c.parallelize(pairs, 8);
        ds.clone().group_by_key("group", 4);
        ds.reduce_by_key("reduce", 4, |a, b| a + b);
        let m = c.metrics();
        let group_shuffle = m.stages_named("group")[0].shuffle_records;
        let reduce_shuffle = m.stages_named("reduce")[0].shuffle_records;
        assert_eq!(group_shuffle, 10_000);
        // ≤ keys × map tasks = 3 × 8.
        assert!(reduce_shuffle <= 24, "reduce shuffled {reduce_shuffle}");
    }

    #[test]
    fn partition_by_composite_spreads_hot_key() {
        use crate::shuffle::CompositePartitioner;
        let c = cluster();
        // One hot primary key with 64 sub-keys.
        let records: Vec<((u32, u32), u64)> = (0..64).map(|s| ((7u32, s), u64::from(s))).collect();
        let ds = c.parallelize(records, 4);
        let parted = ds.partition_by("spread", &CompositePartitioner::new(16));
        let sizes = parted.partition_sizes();
        let nonempty = sizes.iter().filter(|&&s| s > 0).count();
        assert!(nonempty >= 10, "hot key reached only {nonempty} partitions");
        assert_eq!(parted.count(), 64);
    }

    #[test]
    fn partition_by_frees_the_records_it_consumes() {
        use crate::shuffle::CompositePartitioner;
        let c = cluster();
        let records: Vec<((u32, u32), Arc<u32>)> =
            (0..40).map(|s| ((7u32, s), Arc::new(s))).collect();
        let weak: Vec<_> = records.iter().map(|(_, v)| Arc::downgrade(v)).collect();
        let ds = c.parallelize(records, 4);
        let parted = ds.partition_by("spread", &CompositePartitioner::new(8));
        // Every record was moved, not cloned: the output holds the only
        // strong reference to each value.
        for p in 0..parted.num_partitions() {
            for (_, value) in parted.partition(p) {
                assert_eq!(Arc::strong_count(value), 1);
            }
        }
        assert_eq!(parted.count(), 40);
        drop(parted);
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
        assert_eq!(c.metrics().stages_named("spread")[0].input_records, 40);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let c = cluster();
        let data: Vec<u32> = (0..500).map(|n| n % 50).collect();
        let d = c.parallelize(data, 8).distinct("dedup", 4);
        let mut all = d.collect();
        all.sort();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wide_stage_metrics_are_recorded() {
        let c = cluster();
        let pairs: Vec<(u32, u32)> = (0..100).map(|n| (n % 10, n)).collect();
        c.parallelize(pairs, 4).group_by_key("wide", 4);
        let m = c.metrics();
        let stage = m.stages_named("wide")[0];
        assert_eq!(stage.shuffle_records, 100);
        assert!(stage.shuffle_bytes >= 100);
        assert_eq!(stage.output_records, 10);
        assert_eq!(stage.num_tasks, 4);
    }

    #[test]
    fn group_by_key_with_empty_input() {
        let c = cluster();
        let ds = c.empty::<(u32, u32)>();
        let grouped = ds.group_by_key("empty", 4);
        assert_eq!(grouped.count(), 0);
    }
}
