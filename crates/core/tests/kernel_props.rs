//! Property tests at the kernel and phase level of `topk-simjoin`.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

use std::sync::Arc;

use minispark::{Cluster, ClusterConfig};
use topk_datagen::rng::{check, Rng};
use topk_rankings::bounds::min_distance_given_overlap;
use topk_rankings::{FrequencyTable, OrderedRanking, PrefixKind, Ranking};
use topk_simjoin::kernels::{join_group_nested_loop, GroupThresholds, JoinMode, TokenEntry};
use topk_simjoin::{
    brute_force_join, brute_force_join_rs, cl_join, clp_join, jaccard_brute_force, jaccard_cl_join,
    jaccard_clp_join, jaccard_vj_join, varlen_brute_force, varlen_join, vj_join, vj_join_rs,
    vj_nl_join, vj_repartitioned_join, JaccardConfig, JoinConfig, JoinError, JoinOutcome,
    JoinStats, SkewBudget,
};

/// Cases per property.
const CASES: u64 = 48;

/// A token group of `1..n` rankings of length `k` over a small universe that
/// all contain item 0 (the "group token").
fn token_group(rng: &mut Rng, n: usize, k: usize, universe: u32) -> Vec<TokenEntry> {
    let rankings: Vec<Ranking> = (0..rng.gen_range(1..n))
        .map(|id| {
            // Items of 1..universe, and the shared token 0 at a
            // pseudo-random position.
            let mut items: Vec<u32> = rng
                .distinct(universe - 1, k - 1)
                .iter()
                .map(|i| i + 1)
                .collect();
            items.insert((id % k).min(items.len()), 0);
            Ranking::new_unchecked(id as u64, items)
        })
        .collect();
    let freq = FrequencyTable::from_rankings(&rankings);
    rankings
        .iter()
        .map(|r| {
            let ordered = OrderedRanking::by_frequency(r, &freq);
            let rank = ordered.rank_of(0).expect("token 0 present") as u16;
            TokenEntry::plain(rank, Arc::new(ordered))
        })
        .collect()
}

// Verification counters are consistent: results ≤ verified ≤ candidates,
// and position pruning only reduces verifications.
#[test]
fn kernel_stats_are_consistent() {
    check("kernel_stats_are_consistent", CASES, |rng| {
        let entries = token_group(rng, 12, 5, 16);
        let theta_raw = rng.gen_range(0u64..=30);
        let stats = JoinStats::default();
        let results = join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(theta_raw),
            true,
            JoinMode::SelfJoin,
            &stats,
        );
        let snap = stats.snapshot();
        assert_eq!(snap.result_pairs as usize, results.len());
        assert!(snap.verified <= snap.candidates);
        assert_eq!(
            snap.verified + snap.position_pruned + snap.overlap_pruned,
            snap.candidates
        );
    });
}

/// Every driver that runs the token-grouped join, by its stage label.
const DRIVERS: [&str; 11] = [
    "vj",
    "vj-nl",
    "vj-rs",
    "vj-p",
    "cl",
    "cl-p",
    "jaccard-vj",
    "jaccard-cl",
    "jaccard-clp",
    "varlen-mixed",
    "varlen-equal",
];

/// Ranking length of the fixed-length corpora.
const K: usize = 6;

/// `n` rankings over a small universe, most of them perturbations of an
/// earlier one (an adjacent swap or one replaced item), so pairs sharing
/// several prefix tokens abound. `lengths` bounds each ranking's length.
fn near_duplicates(
    rng: &mut Rng,
    n: u64,
    lengths: std::ops::RangeInclusive<usize>,
) -> Vec<Ranking> {
    const UNIVERSE: u32 = 16;
    let mut data: Vec<Ranking> = Vec::new();
    for id in 0..n {
        let items = match data.len() {
            0 => None,
            len if rng.gen_bool(0.7) => Some(data[rng.gen_range(0..len)].items().to_vec()),
            _ => None,
        };
        let items = match items {
            Some(mut items) if rng.gen_bool(0.5) => {
                let i = rng.gen_range(0..items.len() - 1);
                items.swap(i, i + 1);
                items
            }
            Some(mut items) => {
                let fresh = (0..UNIVERSE).find(|item| !items.contains(item));
                let i = rng.gen_range(0..items.len());
                items[i] = fresh.expect("the universe is larger than a ranking");
                items
            }
            None => {
                let k = rng.gen_range(lengths.clone());
                rng.distinct(UNIVERSE, k)
            }
        };
        data.push(Ranking::new(id, items).expect("distinct items by construction"));
    }
    data
}

/// A raw Footrule threshold on or next to a boundary where the minimum
/// overlap (and so the prefix length) changes, or the maximum — where the
/// threshold admits disjoint pairs and the sentinel group joins.
fn raw_near_boundary(rng: &mut Rng, k: usize) -> u64 {
    let max = min_distance_given_overlap(k, 0);
    if rng.gen_bool(0.15) {
        return max;
    }
    let boundary = min_distance_given_overlap(k, rng.gen_range(1..=k));
    (boundary + rng.gen_range(0u64..=2))
        .saturating_sub(1)
        .min(max)
}

/// A Jaccard threshold on or just beside a minimum-overlap boundary
/// `(2k − 2o) / (2k − o)`, or 1.
fn jaccard_near_boundary(rng: &mut Rng) -> f64 {
    if rng.gen_bool(0.15) {
        return 1.0;
    }
    let o = rng.gen_range(1..=K) as f64;
    let k = K as f64;
    let boundary = (2.0 * k - 2.0 * o) / (2.0 * k - o);
    let theta = boundary + [-1e-6, 0.0, 1e-6][rng.gen_range(0usize..3)];
    theta.clamp(0.0, 1.0)
}

// Whichever token groups a qualifying pair meets in, exactly one of them
// keeps it: the output — before the drivers sort it — already holds every
// pair once, equals brute force, and the flat drivers count each result
// once. Every driver, every prefix kind, thresholds on and beside the
// overlap boundaries (and at the sentinel), every skew policy, spilling
// shuffles and one or two slots.
#[test]
fn every_pair_is_kept_by_one_group_and_matches_brute_force() {
    let mut case = 0usize;
    let mut nonempty = 0usize;
    check(
        "every_pair_is_kept_by_one_group_and_matches_brute_force",
        132,
        |rng| {
            let driver = DRIVERS[case % DRIVERS.len()];
            case += 1;
            let prefix = [
                PrefixKind::Weighted,
                PrefixKind::Overlap,
                PrefixKind::Ordered,
            ][rng.gen_range(0usize..3)];
            let skew = [
                SkewBudget::Off,
                SkewBudget::Fixed(1),
                SkewBudget::Fixed(3),
                SkewBudget::Auto,
            ][rng.gen_range(0usize..4)];
            let slots = rng.gen_range(1usize..=2);
            let spill = rng.gen_bool(0.5);
            let delta = rng.gen_range(2usize..=6);
            let mut cluster_config = ClusterConfig::local(slots).with_default_partitions(3);
            if spill {
                cluster_config = cluster_config.with_spill_budget(8);
            }
            let cluster = Cluster::new(cluster_config);
            let n = rng.gen_range(20u64..=40);
            let data = near_duplicates(rng, n, K..=K);

            let theta = raw_near_boundary(rng, K) as f64 / min_distance_given_overlap(K, 0) as f64;
            let footrule = JoinConfig::new(theta)
                .with_prefix(prefix)
                .with_cluster_threshold([0.0, 0.03, 0.1][rng.gen_range(0usize..3)])
                .with_partition_threshold(delta)
                .with_skew(skew);
            let jaccard = JaccardConfig::new(jaccard_near_boundary(rng))
                .with_cluster_threshold([0.0, 0.05, 0.2][rng.gen_range(0usize..3)])
                .with_partition_threshold(delta)
                .with_skew(skew);
            let thetas = format!("θ = {theta} (Jaccard {})", jaccard.theta);
            let described = format!(
                "{driver}, {prefix:?}, {thetas}, {skew:?}, δ = {delta}, {slots} slot(s), \
                 spill = {spill}"
            );

            let (outcome, expected, flat): (JoinOutcome, JoinOutcome, bool) = match driver {
                "vj" | "vj-nl" | "vj-p" | "cl" | "cl-p" => {
                    let join = match driver {
                        "vj" => vj_join,
                        "vj-nl" => vj_nl_join,
                        "vj-p" => vj_repartitioned_join,
                        "cl" => cl_join,
                        _ => clp_join,
                    };
                    (
                        join(&cluster, &data, &footrule).expect("valid input"),
                        brute_force_join(&cluster, &data, theta).expect("valid input"),
                        !driver.starts_with("cl"),
                    )
                }
                "vj-rs" => {
                    let right = near_duplicates(rng, n / 2, K..=K);
                    (
                        vj_join_rs(&cluster, &data, &right, &footrule).expect("valid input"),
                        brute_force_join_rs(&cluster, &data, &right, theta).expect("valid input"),
                        true,
                    )
                }
                "jaccard-vj" | "jaccard-cl" | "jaccard-clp" => {
                    let join = match driver {
                        "jaccard-vj" => jaccard_vj_join,
                        "jaccard-cl" => jaccard_cl_join,
                        _ => jaccard_clp_join,
                    };
                    (
                        join(&cluster, &data, &jaccard).expect("valid input"),
                        jaccard_brute_force(&cluster, &data, jaccard.theta).expect("valid input"),
                        driver == "jaccard-vj",
                    )
                }
                _ => {
                    let data = if driver == "varlen-mixed" {
                        near_duplicates(rng, n, 4..=7)
                    } else {
                        data
                    };
                    let max_k = data.iter().map(Ranking::k).max().expect("n ≥ 20");
                    let theta_raw = raw_near_boundary(rng, max_k);
                    (
                        varlen_join(&cluster, &data, theta_raw, 0, skew).expect("valid input"),
                        varlen_brute_force(&cluster, &data, theta_raw).expect("valid input"),
                        true,
                    )
                }
            };
            assert!(
                outcome.pairs.windows(2).all(|w| w[0] < w[1]),
                "{described}: a pair came out twice"
            );
            assert_eq!(outcome.pairs, expected.pairs, "{described}");
            if flat {
                assert_eq!(
                    outcome.stats.result_pairs,
                    outcome.pairs.len() as u64,
                    "{described}: result pairs counted more than once"
                );
            }
            nonempty += usize::from(!expected.pairs.is_empty());
        },
    );
    assert!(nonempty >= 100, "only {nonempty} of 132 cases had any pair");
}

/// `uniform_k` as it was written with a hash set of the ids seen so far:
/// the reference for the first offending ranking in input order.
fn uniform_k_by_hashing(data: &[Ranking]) -> Result<Option<usize>, JoinError> {
    let mut k = None;
    let mut ids = std::collections::HashSet::new();
    for r in data {
        match k {
            None => k = Some(r.k()),
            Some(expected) if expected != r.k() => {
                return Err(JoinError::MixedRankingLengths {
                    expected,
                    found: r.k(),
                })
            }
            _ => {}
        }
        if !ids.insert(r.id()) {
            return Err(JoinError::DuplicateRankingId(r.id()));
        }
    }
    Ok(k)
}

#[test]
fn uniform_k_reports_the_first_offender_in_input_order() {
    check(
        "uniform_k_reports_the_first_offender_in_input_order",
        256,
        |rng| {
            let n = rng.gen_range(0usize..40);
            let k = rng.gen_range(2usize..6);
            let mut ids: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
            match rng.gen_range(0u32..3) {
                0 => {}
                1 => ids.reverse(),
                _ => rng.shuffle(&mut ids),
            }
            let mut lens = vec![k; n];
            // Plant up to two repeated ids and up to two wrong lengths, at
            // random positions: either comes first, or both at one record.
            if n > 1 {
                for _ in 0..rng.gen_range(0usize..3) {
                    let at = rng.gen_range(1..n);
                    ids[at] = ids[rng.gen_range(0..n)];
                }
                for _ in 0..rng.gen_range(0usize..3) {
                    lens[rng.gen_range(1..n)] = k + rng.gen_range(1usize..3);
                }
            }
            let data: Vec<Ranking> = ids
                .iter()
                .zip(&lens)
                .map(|(&id, &len)| Ranking::new_unchecked(id, (0..len as u32).collect()))
                .collect();
            assert_eq!(
                topk_simjoin::pipeline::uniform_k(&data),
                uniform_k_by_hashing(&data),
                "ids {ids:?}, lengths {lens:?}"
            );
        },
    );
}

#[test]
fn uniform_k_prefers_the_length_when_one_record_offends_twice() {
    let r = |id: u64, k: u32| Ranking::new_unchecked(id, (0..k).collect());
    let uniform_k = topk_simjoin::pipeline::uniform_k;
    let mixed = Err(JoinError::MixedRankingLengths {
        expected: 3,
        found: 4,
    });
    // Both faults on one record: its length is reported.
    assert_eq!(uniform_k(&[r(1, 3), r(2, 3), r(1, 4)]), mixed);
    // The earlier fault wins, whichever it is.
    assert_eq!(
        uniform_k(&[r(1, 3), r(1, 3), r(2, 4)]),
        Err(JoinError::DuplicateRankingId(1))
    );
    assert_eq!(uniform_k(&[r(1, 3), r(2, 4), r(1, 3)]), mixed);
    // A third copy of an id does not hide the second.
    assert_eq!(
        uniform_k(&[r(5, 3), r(9, 3), r(9, 3), r(5, 3)]),
        Err(JoinError::DuplicateRankingId(9))
    );
    assert_eq!(uniform_k(&[]), Ok(None));
    assert_eq!(uniform_k(&[r(8, 3), r(2, 3)]), Ok(Some(3)));
}
