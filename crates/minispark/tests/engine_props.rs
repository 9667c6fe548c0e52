//! Property tests for the engine: every distributed operator must agree
//! with its obvious sequential equivalent, for any partitioning and any
//! slot count.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use minispark::executor::TaskSpan;
use minispark::{Cluster, ClusterConfig, StageMetrics};
use topk_datagen::rng::{check, Rng};

/// Cases per property.
const CASES: u64 = 256;

fn cluster(slots: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(slots))
}

/// A vector of `0..max_len` values drawn by `value`.
fn vec_of<T>(rng: &mut Rng, max_len: usize, mut value: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| value(rng)).collect()
}

/// Up to `max_len` pairs of a key of `0..keys` and a value drawn by `value`.
fn keyed<V>(
    rng: &mut Rng,
    max_len: usize,
    keys: u32,
    mut value: impl FnMut(&mut Rng) -> V,
) -> Vec<(u32, V)> {
    vec_of(rng, max_len, |rng| (rng.gen_range(0..keys), value(rng)))
}

#[test]
fn map_matches_iterator_map() {
    check("map_matches_iterator_map", CASES, |rng| {
        let data = vec_of(rng, 300, |rng| rng.gen_range(0..=u32::MAX));
        let partitions = rng.gen_range(1usize..12);
        let slots = rng.gen_range(1usize..6);
        let ds = cluster(slots).parallelize(data.clone(), partitions);
        let mut got = ds.map("m", |n| n.wrapping_mul(3)).collect();
        let mut expected: Vec<u32> = data.iter().map(|n| n.wrapping_mul(3)).collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn filter_flat_map_compose() {
    check("filter_flat_map_compose", CASES, |rng| {
        let data = vec_of(rng, 300, |rng| rng.gen_range(0u32..1000));
        let partitions = rng.gen_range(1usize..12);
        let ds = cluster(4).parallelize(data.clone(), partitions);
        let mut got = ds
            .filter("f", |n| n % 3 == 0)
            .flat_map("fm", |n| vec![*n, *n + 1])
            .collect();
        let mut expected: Vec<u32> = data
            .iter()
            .filter(|n| *n % 3 == 0)
            .flat_map(|n| vec![*n, *n + 1])
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn group_by_key_matches_hashmap() {
    check("group_by_key_matches_hashmap", CASES, |rng| {
        let data = keyed(rng, 400, 20, |rng| rng.gen_range(0..=u16::MAX));
        let partitions = rng.gen_range(1usize..10);
        let targets = rng.gen_range(1usize..10);
        let ds = cluster(4).parallelize(data.clone(), partitions);
        let grouped = ds.group_by_key("g", targets);
        let mut expected: HashMap<u32, Vec<u16>> = HashMap::new();
        for (k, v) in &data {
            expected.entry(*k).or_default().push(*v);
        }
        let got = grouped.collect();
        assert_eq!(got.len(), expected.len());
        for (k, mut vs) in got {
            let mut want = expected.remove(&k).expect("unexpected key");
            vs.sort_unstable();
            want.sort_unstable();
            assert_eq!(vs, want);
        }
    });
}

#[test]
fn group_by_key_spilling_matches_group_by_key() {
    check("group_by_key_spilling_matches_group_by_key", CASES, |rng| {
        let data = keyed(rng, 300, 15, |rng| rng.gen_range(0..=u32::MAX));
        let budget = rng.gen_range(1usize..50);
        let plain = cluster(4).parallelize(data.clone(), 6).group_by_key("g", 4);
        let spill_cluster = Cluster::new(ClusterConfig::local(4).with_spill_budget(budget));
        let spilled = spill_cluster
            .parallelize(data, 6)
            .group_by_key_spilling("gs", 4);
        let normalize = |mut rows: Vec<(u32, Vec<u32>)>| {
            for (_, vs) in &mut rows {
                vs.sort_unstable();
            }
            rows.sort();
            rows
        };
        assert_eq!(normalize(plain.collect()), normalize(spilled.collect()));
    });
}

#[test]
fn reduce_by_key_matches_fold() {
    check("reduce_by_key_matches_fold", CASES, |rng| {
        let data = keyed(rng, 300, 10, |rng| rng.gen_range(0u64..1000));
        let partitions = rng.gen_range(1usize..10);
        let ds = cluster(4).parallelize(data.clone(), partitions);
        let mut got = ds.reduce_by_key("r", 4, |a, b| a + b).collect();
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_default() += v;
        }
        let mut expected: Vec<(u32, u64)> = expected.into_iter().collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn distinct_matches_hashset() {
    check("distinct_matches_hashset", CASES, |rng| {
        let data = vec_of(rng, 400, |rng| rng.gen_range(0u32..50));
        let targets = rng.gen_range(1usize..8);
        let ds = cluster(4).parallelize(data.clone(), 7);
        let mut got = ds.distinct("d", targets).collect();
        let mut expected: Vec<u32> = data
            .into_iter()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn union_preserves_records() {
    check("union_preserves_records", CASES, |rng| {
        let a = vec_of(rng, 150, |rng| rng.gen_range(0..=u32::MAX));
        let b = vec_of(rng, 150, |rng| rng.gen_range(0..=u32::MAX));
        let c = cluster(4);
        let u = c
            .parallelize(a.clone(), 3)
            .union(&c.parallelize(b.clone(), 2));
        assert_eq!(u.num_partitions(), 5);
        let mut got = u.collect();
        let mut expected = a;
        expected.extend(b);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn results_independent_of_slots_and_partitions() {
    check(
        "results_independent_of_slots_and_partitions",
        CASES,
        |rng| {
            let data = keyed(rng, 250, 16, |rng| rng.gen_range(0..=u16::MAX));
            let mut reference: Option<Vec<(u32, usize)>> = None;
            for (slots, partitions) in [(1usize, 1usize), (2, 5), (8, 13)] {
                let ds = cluster(slots).parallelize(data.clone(), partitions);
                let mut got: Vec<(u32, usize)> = ds
                    .group_by_key("g", 4)
                    .map("sizes", |(k, vs)| (*k, vs.len()))
                    .collect();
                got.sort_unstable();
                match &reference {
                    None => reference = Some(got),
                    Some(expected) => assert_eq!(&got, expected),
                }
            }
        },
    );
}

/// LPT makespan invariants: never below max(longest task, total/slots),
/// never above the serial total, monotone non-increasing in slots.
fn assert_makespan_bounds(millis: &[u64], slots: usize) {
    let base = Instant::now();
    let stage = StageMetrics {
        spans: millis
            .iter()
            .enumerate()
            .map(|(task, &m)| TaskSpan {
                task,
                slot: 0,
                queued: base,
                started: base,
                finished: base + Duration::from_millis(m),
            })
            .collect(),
        num_tasks: millis.len(),
        ..StageMetrics::default()
    };
    let total: u64 = millis.iter().sum();
    let longest = *millis.iter().max().expect("non-empty");
    let sim = stage.simulated_wall(slots).as_millis() as u64;
    assert!(sim >= longest, "makespan {sim} < longest task {longest}");
    assert!(
        sim as f64 >= total as f64 / slots as f64 - 1.0,
        "makespan {sim} below perfect split {}",
        total as f64 / slots as f64
    );
    assert!(sim <= total, "makespan {sim} > serial total {total}");
    // More slots never hurt.
    let fewer = stage
        .simulated_wall(slots.saturating_sub(1).max(1))
        .as_millis() as u64;
    assert!(sim <= fewer);
    // (LPT is within 4/3 − 1/(3m) of the true optimum, but the optimum
    // itself is NP-hard to compute, and comparing against the
    // max(longest, total/m) *lower bound* of the optimum is not a sound
    // assertion — the bound can be loose. The four checks above are the
    // invariants the simulation relies on.)
}

#[test]
fn simulated_wall_respects_makespan_bounds() {
    // Once a failing case: four tasks on three slots.
    assert_makespan_bounds(&[111, 159, 155, 144], 3);
    check("simulated_wall_respects_makespan_bounds", CASES, |rng| {
        let len = rng.gen_range(1usize..40);
        let millis: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..200)).collect();
        let slots = rng.gen_range(1usize..16);
        assert_makespan_bounds(&millis, slots);
    });
}
