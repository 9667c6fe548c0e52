//! Property tests for the engine: every distributed operator must agree
//! with its obvious sequential equivalent, for any partitioning and any
//! slot count.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

use std::collections::{HashMap, HashSet};

use minispark::{Cluster, ClusterConfig};
use proptest::prelude::*;

fn cluster(slots: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(slots))
}

proptest! {
    #[test]
    fn map_matches_iterator_map(
        data in proptest::collection::vec(any::<u32>(), 0..300),
        partitions in 1usize..12,
        slots in 1usize..6,
    ) {
        let ds = cluster(slots).parallelize(data.clone(), partitions);
        let mut got = ds.map("m", |n| n.wrapping_mul(3)).collect();
        let mut expected: Vec<u32> = data.iter().map(|n| n.wrapping_mul(3)).collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn filter_flat_map_compose(
        data in proptest::collection::vec(0u32..1000, 0..300),
        partitions in 1usize..12,
    ) {
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
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn group_by_key_matches_hashmap(
        data in proptest::collection::vec((0u32..20, any::<u16>()), 0..400),
        partitions in 1usize..10,
        targets in 1usize..10,
    ) {
        let ds = cluster(4).parallelize(data.clone(), partitions);
        let grouped = ds.group_by_key("g", targets);
        let mut expected: HashMap<u32, Vec<u16>> = HashMap::new();
        for (k, v) in &data {
            expected.entry(*k).or_default().push(*v);
        }
        let got = grouped.collect();
        prop_assert_eq!(got.len(), expected.len());
        for (k, mut vs) in got {
            let mut want = expected.remove(&k).expect("unexpected key");
            vs.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(vs, want);
        }
    }

    #[test]
    fn group_by_key_spilling_matches_group_by_key(
        data in proptest::collection::vec((0u32..15, any::<u32>()), 0..300),
        budget in 1usize..50,
    ) {
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
        prop_assert_eq!(normalize(plain.collect()), normalize(spilled.collect()));
    }

    #[test]
    fn reduce_by_key_matches_fold(
        data in proptest::collection::vec((0u32..10, 0u64..1000), 0..300),
        partitions in 1usize..10,
    ) {
        let ds = cluster(4).parallelize(data.clone(), partitions);
        let mut got = ds.reduce_by_key("r", 4, |a, b| a + b).collect();
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_default() += v;
        }
        let mut expected: Vec<(u32, u64)> = expected.into_iter().collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn join_matches_nested_loop(
        left in proptest::collection::vec((0u32..12, any::<u8>()), 0..120),
        right in proptest::collection::vec((0u32..12, any::<u8>()), 0..120),
    ) {
        let c = cluster(4);
        let l = c.parallelize(left.clone(), 5);
        let r = c.parallelize(right.clone(), 3);
        let mut got = l.join("j", &r, 4).collect();
        let mut expected = Vec::new();
        for (k, v) in &left {
            for (k2, w) in &right {
                if k == k2 {
                    expected.push((*k, (*v, *w)));
                }
            }
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn distinct_matches_hashset(
        data in proptest::collection::vec(0u32..50, 0..400),
        targets in 1usize..8,
    ) {
        let ds = cluster(4).parallelize(data.clone(), 7);
        let mut got = ds.distinct("d", targets).collect();
        let mut expected: Vec<u32> = data.into_iter().collect::<HashSet<_>>().into_iter().collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn union_and_repartition_preserve_records(
        a in proptest::collection::vec(any::<u32>(), 0..150),
        b in proptest::collection::vec(any::<u32>(), 0..150),
        n in 1usize..10,
    ) {
        let c = cluster(4);
        let u = c.parallelize(a.clone(), 3).union(&c.parallelize(b.clone(), 2));
        let re = u.repartition("rp", n);
        prop_assert_eq!(re.num_partitions(), n);
        let mut got = re.collect();
        let mut expected = a;
        expected.extend(b);
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn cogroup_collects_everything(
        left in proptest::collection::vec((0u32..8, any::<u8>()), 0..100),
        right in proptest::collection::vec((0u32..8, any::<u8>()), 0..100),
    ) {
        let c = cluster(4);
        let cg = c
            .parallelize(left.clone(), 4)
            .cogroup("cg", &c.parallelize(right.clone(), 4), 4);
        let rows = cg.collect();
        let total_left: usize = rows.iter().map(|(_, (l, _))| l.len()).sum();
        let total_right: usize = rows.iter().map(|(_, (_, r))| r.len()).sum();
        prop_assert_eq!(total_left, left.len());
        prop_assert_eq!(total_right, right.len());
        // Keys are unique.
        let keys: HashSet<u32> = rows.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(keys.len(), rows.len());
    }

    #[test]
    fn results_independent_of_slots_and_partitions(
        data in proptest::collection::vec((0u32..16, any::<u16>()), 0..250),
    ) {
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
                Some(expected) => prop_assert_eq!(&got, expected),
            }
        }
    }
}

proptest! {
    // LPT makespan invariants: never below max(longest task, total/slots),
    // never above the serial total, monotone non-increasing in slots.
    #[test]
    fn simulated_wall_respects_makespan_bounds(
        millis in proptest::collection::vec(1u64..200, 1..40),
        slots in 1usize..16,
    ) {
        use minispark::StageMetrics;
        use std::time::Duration;
        let stage = StageMetrics {
            task_durations: millis.iter().map(|&m| Duration::from_millis(m)).collect(),
            num_tasks: millis.len(),
            ..StageMetrics::default()
        };
        let total: u64 = millis.iter().sum();
        let longest = *millis.iter().max().expect("non-empty");
        let sim = stage.simulated_wall(slots).as_millis() as u64;
        prop_assert!(sim >= longest, "makespan {sim} < longest task {longest}");
        prop_assert!(
            sim as f64 >= total as f64 / slots as f64 - 1.0,
            "makespan {sim} below perfect split {}",
            total as f64 / slots as f64
        );
        prop_assert!(sim <= total, "makespan {sim} > serial total {total}");
        // More slots never hurt.
        let fewer = stage
            .simulated_wall(slots.saturating_sub(1).max(1))
            .as_millis() as u64;
        prop_assert!(sim <= fewer);
        // (LPT is within 4/3 − 1/(3m) of the true optimum, but the optimum
        // itself is NP-hard to compute, and comparing against the
        // max(longest, total/m) *lower bound* of the optimum is not a sound
        // assertion — the bound can be loose. The four checks above are the
        // invariants the simulation relies on.)
    }
}
