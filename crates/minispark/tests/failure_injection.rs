//! Failure-injection and edge-condition tests for the engine: panicking
//! tasks, pathological partitionings, hot keys, forced spills, and the
//! memory-budget path under stress.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::let_underscore_must_use)]

use std::sync::atomic::{AtomicUsize, Ordering};

use minispark::{Cluster, ClusterConfig, CompositePartitioner, Partitioner};

fn cluster(slots: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(slots))
}

#[test]
fn task_panic_fails_the_stage() {
    let c = cluster(4);
    let ds = c.parallelize((0..100u32).collect(), 8);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ds.map("explode", |n| {
            if *n == 57 {
                panic!("injected task failure");
            }
            *n
        })
        .collect()
    }));
    assert!(result.is_err(), "a panicking task must fail the stage");
}

#[test]
fn stage_after_failed_stage_still_works() {
    // The cluster must stay usable after a failed job (no poisoned state).
    let c = cluster(4);
    let ds = c.parallelize((0..50u32).collect(), 4);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ds.map("explode", |_| -> u32 { panic!("boom") }).collect()
    }));
    let ok = c
        .parallelize((0..50u32).collect(), 4)
        .map("fine", |n| n + 1);
    assert_eq!(ok.count(), 50);
}

#[test]
fn empty_partitions_everywhere() {
    let c = cluster(4);
    // 3 records across 16 partitions: most tasks see nothing.
    let ds = c.parallelize(vec![1u32, 2, 3], 16);
    let grouped = ds.map("k", |n| (*n % 2, *n)).group_by_key("g", 16);
    assert_eq!(grouped.count(), 2);
    // A wide operator whose every input partition is empty.
    let empty = c.empty::<(u32, u32)>().reduce_by_key("r", 8, |a, b| a + b);
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.num_partitions(), 8);
}

#[test]
fn single_hot_key_lands_on_one_partition() {
    // groupByKey cannot split a hot key — the skew metric must expose it.
    let c = cluster(4);
    let data: Vec<(u32, u64)> = (0..5_000).map(|n| (7u32, n)).collect();
    let grouped = c.parallelize(data, 16).group_by_key("hot", 8);
    assert_eq!(grouped.count(), 1);
    let metrics = c.metrics();
    let stage = metrics.stages_named("hot")[0];
    assert_eq!(stage.max_partition_records, 1);
    assert!(stage.skew() >= 7.9, "skew = {}", stage.skew());
}

#[test]
fn composite_partitioner_defuses_the_hot_key() {
    let c = cluster(4);
    let data: Vec<((u32, u32), u64)> = (0..5_000).map(|n| ((7u32, (n % 64) as u32), n)).collect();
    let spread = c
        .parallelize(data, 16)
        .partition_by("spread", &CompositePartitioner::new(16));
    let nonempty = spread.partition_sizes().iter().filter(|&&s| s > 0).count();
    assert!(nonempty >= 12, "only {nonempty} partitions used");
}

#[test]
fn forced_spill_with_budget_one() {
    let c = Cluster::new(ClusterConfig::local(2).with_spill_budget(1));
    let data: Vec<(u32, u64)> = (0..2_000u64).map(|n| ((n % 23) as u32, n)).collect();
    let grouped = c.parallelize(data, 4).group_by_key_spilling("spill-all", 2);
    assert_eq!(grouped.count(), 23);
    let total_values: usize = grouped.collect().iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total_values, 2_000);
    assert!(c.metrics().total_spilled_runs() >= 1_000);
}

#[test]
fn zero_partition_requests_are_clamped() {
    let c = cluster(2);
    let ds = c.parallelize(vec![1u32, 2, 3], 0);
    assert_eq!(ds.num_partitions(), 1);
    let grouped = ds.map("k", |n| (*n, *n)).group_by_key("g", 0);
    assert_eq!(grouped.count(), 3);
}

#[test]
fn broadcast_shared_under_concurrency() {
    let c = cluster(8);
    let lookup = c.broadcast((0..1000u32).map(|n| n * 2).collect::<Vec<u32>>());
    let hits = AtomicUsize::new(0);
    let ds = c.parallelize((0..1000u32).collect(), 32);
    let mapped = ds.map("lookup", |n| {
        hits.fetch_add(1, Ordering::Relaxed);
        lookup.value()[*n as usize]
    });
    assert_eq!(mapped.count(), 1000);
    assert_eq!(hits.load(Ordering::Relaxed), 1000);
}

#[test]
fn custom_partitioner_out_of_range_is_caught_in_debug() {
    // A partitioner returning an in-range value must be respected exactly.
    struct Fixed;
    impl Partitioner<u32> for Fixed {
        fn partition(&self, _key: &u32) -> usize {
            2
        }
        fn num_partitions(&self) -> usize {
            4
        }
    }
    let c = cluster(2);
    let ds = c.parallelize(vec![(1u32, ()), (2, ()), (3, ())], 2);
    let parted = ds.partition_by("fixed", &Fixed);
    assert_eq!(parted.partition_sizes(), vec![0, 0, 3, 0]);
}

#[test]
fn deeply_chained_pipeline_is_stable() {
    let c = cluster(4);
    let mut ds = c.parallelize((0..200u64).collect(), 8);
    for i in 0..30 {
        ds = ds.map(&format!("step-{i}"), |n| n.wrapping_add(1));
    }
    let mut got = ds.collect();
    got.sort_unstable();
    assert_eq!(got, (30..230u64).collect::<Vec<_>>());
    assert_eq!(c.metrics().stages.len(), 30);
}

#[test]
fn huge_partition_counts_do_not_explode() {
    let c = cluster(2);
    let ds = c.parallelize((0..100u32).collect(), 2_000);
    assert_eq!(ds.count(), 100);
    let grouped = ds.map("k", |n| (*n % 5, *n)).group_by_key("g", 2_000);
    assert_eq!(grouped.count(), 5);
}
