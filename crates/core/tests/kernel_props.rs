//! Property tests at the kernel and phase level of `topk-simjoin`.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation)]

use std::sync::Arc;

use proptest::prelude::*;
use topk_rankings::{FrequencyTable, OrderedRanking, Ranking};
use topk_simjoin::kernels::{
    join_group_indexed, join_group_nested_loop, join_group_rs, GroupScratch, GroupThresholds,
    JoinMode, TokenEntry,
};
use topk_simjoin::JoinStats;

/// A token group: rankings of length `k` over a small universe that all
/// contain item 0 (the "group token").
fn token_group(n: usize, k: usize, universe: u32) -> impl Strategy<Value = Vec<TokenEntry>> {
    proptest::collection::vec(
        proptest::sample::subsequence((1..universe).collect::<Vec<u32>>(), k - 1).prop_shuffle(),
        1..n,
    )
    .prop_map(move |rows| {
        let rankings: Vec<Ranking> = rows
            .into_iter()
            .enumerate()
            .map(|(id, mut items)| {
                // Put the shared token 0 at a pseudo-random position.
                let pos = id % k;
                items.insert(pos.min(items.len()), 0);
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
    })
}

fn normalize(results: Vec<(usize, usize, u64)>, entries: &[TokenEntry]) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = results
        .into_iter()
        .map(|(i, j, d)| {
            let (a, b) = (entries[i].ranking.id(), entries[j].ranking.id());
            (a.min(b), a.max(b), d)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The two kernel styles must find the identical pair set: the group
    // token is in every member's prefix, so the indexed kernel's prefix
    // probing covers all pairs the nested loop enumerates.
    #[test]
    fn indexed_kernel_equals_nested_loop(
        entries in token_group(14, 6, 20),
        theta_raw in 0u64..=42,
        prefix_len in 1usize..=6,
        pos_filter in any::<bool>(),
    ) {
        let s1 = JoinStats::default();
        let nl = normalize(
            join_group_nested_loop(
                &entries,
                &GroupThresholds::Uniform(theta_raw),
                pos_filter,
                JoinMode::SelfJoin,
                &s1,
            ),
            &entries,
        );
        let s2 = JoinStats::default();
        let ix = normalize(
            join_group_indexed(
                &entries,
                |_| prefix_len,
                &GroupThresholds::Uniform(theta_raw),
                pos_filter,
                JoinMode::SelfJoin,
                &s2,
                &mut GroupScratch::new(),
            ),
            &entries,
        );
        // The indexed kernel only probes `prefix_len` tokens — completeness
        // within a group needs the group token inside that prefix. With the
        // full prefix the sets must match exactly.
        if prefix_len == 6 {
            prop_assert_eq!(&ix, &nl);
        } else {
            // Shorter prefixes can only lose pairs, never invent them.
            for hit in &ix {
                prop_assert!(nl.contains(hit), "indexed invented {hit:?}");
            }
        }
    }

    // The R-S kernel over a split of the group equals the nested loop
    // restricted to cross-split pairs.
    #[test]
    fn rs_kernel_covers_cross_pairs(
        entries in token_group(14, 6, 20),
        theta_raw in 0u64..=42,
        split_at in 0usize..14,
    ) {
        let split_at = split_at.min(entries.len());
        let (left, right) = entries.split_at(split_at);
        let s = JoinStats::default();
        let rs: Vec<(u64, u64, u64)> = {
            let mut out: Vec<(u64, u64, u64)> =
                join_group_rs(
                    left,
                    right,
                    &GroupThresholds::Uniform(theta_raw),
                    false,
                    JoinMode::SelfJoin,
                    &s,
                )
                .into_iter()
                    .map(|(i, j, d)| {
                        let (a, b) = (left[i].ranking.id(), right[j].ranking.id());
                        (a.min(b), a.max(b), d)
                    })
                    .collect();
            out.sort_unstable();
            out
        };
        let s2 = JoinStats::default();
        let all = normalize(
            join_group_nested_loop(
                &entries,
                &GroupThresholds::Uniform(theta_raw),
                false,
                JoinMode::SelfJoin,
                &s2,
            ),
            &entries,
        );
        let left_ids: std::collections::HashSet<u64> =
            left.iter().map(|e| e.ranking.id()).collect();
        let right_ids: std::collections::HashSet<u64> =
            right.iter().map(|e| e.ranking.id()).collect();
        let expected: Vec<(u64, u64, u64)> = all
            .into_iter()
            .filter(|(a, b, _)| {
                (left_ids.contains(a) && right_ids.contains(b))
                    || (left_ids.contains(b) && right_ids.contains(a))
            })
            .collect();
        prop_assert_eq!(rs, expected);
    }

    // Verification counters are consistent: results ≤ verified ≤ candidates,
    // and position pruning only reduces verifications.
    #[test]
    fn kernel_stats_are_consistent(
        entries in token_group(12, 5, 16),
        theta_raw in 0u64..=30,
    ) {
        let stats = JoinStats::default();
        let results = join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(theta_raw),
            true,
            JoinMode::SelfJoin,
            &stats,
        );
        let snap = stats.snapshot();
        prop_assert_eq!(snap.result_pairs as usize, results.len());
        prop_assert!(snap.verified <= snap.candidates);
        prop_assert_eq!(
            snap.verified + snap.position_pruned + snap.overlap_pruned,
            snap.candidates
        );
    }
}
