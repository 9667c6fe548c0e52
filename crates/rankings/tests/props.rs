//! Property-based tests for the metric and the pruning bounds.
//!
//! These are the load-bearing guarantees of the whole system: the clustering
//! algorithm (CL/CL-P) is only correct because the Footrule adaptation is a
//! metric, and the prefix/position filters are only admissible because they
//! never prune a true result.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

use proptest::prelude::*;
use topk_rankings::bounds::{
    lower_bound_disjoint_prefix, min_distance_given_overlap, min_overlap, ordered_prefix_len,
    overlap_prefix_len, position_filter_prunes,
};
use topk_rankings::distance::{
    footrule_norm, footrule_pairs, footrule_pairs_within, footrule_raw, footrule_sorted_within,
    footrule_within, kendall_tau_topk, max_raw_distance, raw_threshold,
};
use topk_rankings::ordered::{FrequencyTable, OrderedRanking};
use topk_rankings::verify::{verify_candidate, Verification};
use topk_rankings::Ranking;

/// Strategy: a top-k ranking with `k` distinct items drawn from a small
/// universe (small universes maximize overlap, which is the interesting
/// regime for the bounds).
fn ranking_strategy(k: usize, universe: u32) -> impl Strategy<Value = Ranking> {
    proptest::sample::subsequence((0..universe).collect::<Vec<u32>>(), k)
        .prop_shuffle()
        .prop_map(move |items| Ranking::new_unchecked(0, items))
}

fn ranking_pair(k: usize, universe: u32) -> impl Strategy<Value = (Ranking, Ranking)> {
    (ranking_strategy(k, universe), ranking_strategy(k, universe))
}

fn ranking_triple(k: usize, universe: u32) -> impl Strategy<Value = (Ranking, Ranking, Ranking)> {
    (
        ranking_strategy(k, universe),
        ranking_strategy(k, universe),
        ranking_strategy(k, universe),
    )
}

proptest! {
    // ---- Metric axioms (Fagin et al. prove them; we verify the code). ----

    #[test]
    fn footrule_identity((a, b) in ranking_pair(7, 15)) {
        let d = footrule_raw(&a, &b);
        prop_assert_eq!(d == 0, a.items() == b.items());
    }

    #[test]
    fn footrule_symmetry((a, b) in ranking_pair(7, 15)) {
        prop_assert_eq!(footrule_raw(&a, &b), footrule_raw(&b, &a));
    }

    #[test]
    fn footrule_triangle_inequality((a, b, c) in ranking_triple(6, 12)) {
        let ab = footrule_raw(&a, &b);
        let bc = footrule_raw(&b, &c);
        let ac = footrule_raw(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c) = {} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn footrule_bounded_by_maximum((a, b) in ranking_pair(8, 20)) {
        prop_assert!(footrule_raw(&a, &b) <= max_raw_distance(8));
        let n = footrule_norm(&a, &b);
        prop_assert!((0.0..=1.0).contains(&n));
    }

    // ---- Early-exit verification is exact. ----

    #[test]
    fn footrule_within_is_exact((a, b) in ranking_pair(7, 15), threshold in 0u64..=60) {
        let exact = footrule_raw(&a, &b);
        let within = footrule_within(&a, &b, threshold);
        if exact <= threshold {
            prop_assert_eq!(within, Some(exact));
        } else {
            prop_assert_eq!(within, None);
        }
    }

    // ---- Overlap bound: the distance given overlap o is at least the bound. ----

    #[test]
    fn overlap_bound_is_sound((a, b) in ranking_pair(7, 14)) {
        let o = a.overlap(&b);
        prop_assert!(footrule_raw(&a, &b) >= min_distance_given_overlap(7, o));
    }

    // ---- Prefix filter completeness: any pair within θ shares a token in
    // both overlap prefixes under the common frequency order. ----

    #[test]
    fn overlap_prefix_filter_is_complete(
        (a, b) in ranking_pair(7, 14),
        theta_raw in 0u64..=30,
    ) {
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        if footrule_raw(&a, &b) <= theta_raw {
            let freq = FrequencyTable::from_rankings([&a, &b]);
            let oa = OrderedRanking::by_frequency(&a, &freq);
            let ob = OrderedRanking::by_frequency(&b, &freq);
            let p = overlap_prefix_len(7, theta_raw);
            let shares_prefix_token = oa.prefix(p).iter().any(|(item, _)| {
                ob.prefix(p).iter().any(|(other, _)| other == item)
            });
            prop_assert!(
                shares_prefix_token,
                "pair within θ = {} escaped prefixes of length {}",
                theta_raw, p
            );
        }
    }

    // ---- Ordered prefix (Lemma 4.1) completeness: pairs within θ share a
    // token among their best-ranked p_o items. ----

    #[test]
    fn ordered_prefix_filter_is_complete(
        (a, b) in ranking_pair(7, 14),
        theta_raw in 0u64..=24, // < k²/2 = 24.5 keeps the lemma applicable
    ) {
        if let Some(p) = ordered_prefix_len(7, theta_raw) {
            if footrule_raw(&a, &b) <= theta_raw {
                let shares = a.items()[..p].iter().any(|item| b.items()[..p].contains(item));
                prop_assert!(
                    shares,
                    "pair at distance {} ≤ {} has disjoint ordered prefixes of length {}",
                    footrule_raw(&a, &b), theta_raw, p
                );
            }
        }
    }

    // ---- Lemma 4.1 lower bound: disjoint first-p items ⇒ F ≥ 2p². ----

    #[test]
    fn disjoint_prefix_lower_bound((a, b) in ranking_pair(8, 16), p in 1usize..=4) {
        let disjoint = a.items()[..p].iter().all(|item| !b.items()[..p].contains(item));
        if disjoint {
            prop_assert!(footrule_raw(&a, &b) >= lower_bound_disjoint_prefix(p));
        }
    }

    // ---- Position filter soundness: pruning implies the pair is not a result. ----

    #[test]
    fn position_filter_is_sound((a, b) in ranking_pair(7, 14), theta_raw in 0u64..=40) {
        for (item, rank_a) in a.iter_with_ranks() {
            if let Some(rank_b) = b.rank_of(item) {
                if position_filter_prunes(rank_a, rank_b, theta_raw) {
                    prop_assert!(
                        footrule_raw(&a, &b) > theta_raw,
                        "position filter pruned a true result (item {}, ranks {}/{})",
                        item, rank_a, rank_b
                    );
                }
            }
        }
    }

    // ---- min_overlap consistency: fewer shared items ⇒ above threshold. ----

    #[test]
    fn min_overlap_is_sound((a, b) in ranking_pair(7, 14), theta_raw in 0u64..=40) {
        let omega = min_overlap(7, theta_raw);
        if a.overlap(&b) < omega {
            prop_assert!(footrule_raw(&a, &b) > theta_raw);
        }
    }

    // ---- Ordered representation preserves the distance. ----

    #[test]
    fn ordered_form_preserves_distance((a, b) in ranking_pair(7, 14)) {
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        prop_assert_eq!(oa.footrule_raw(&ob), footrule_raw(&a, &b));
        prop_assert_eq!(&oa.to_ranking(), &a);
    }

    // ---- Kendall tau sanity: Diaconis–Graham for shared-domain lists. ----

    #[test]
    fn kendall_vs_footrule_same_domain(perm in proptest::sample::subsequence((0u32..8).collect::<Vec<u32>>(), 8).prop_shuffle()) {
        let identity = Ranking::new_unchecked(1, (0u32..8).collect());
        let shuffled = Ranking::new_unchecked(2, perm);
        let f = footrule_raw(&identity, &shuffled);
        let k = kendall_tau_topk(&identity, &shuffled);
        prop_assert!(k <= f && f <= 2 * k || (k == 0 && f == 0));
    }
}

proptest! {
    // ---- Differential suite: merge fast path vs. the retained naive scan.
    // The merge kernel behind `OrderedRanking::footrule_within` must agree
    // with `footrule_pairs_within` on every pair, for equal and variable
    // lengths, any scrambling of the scan input's pair order, and the four
    // threshold boundary regimes (exact, exact − 1, 0, u64::MAX). ----

    #[test]
    fn merge_verification_equals_naive_scan(
        a in proptest::sample::subsequence((0u32..24).collect::<Vec<u32>>(), 1..=12).prop_shuffle(),
        b in proptest::sample::subsequence((0u32..24).collect::<Vec<u32>>(), 1..=12).prop_shuffle(),
        scramble in any::<bool>(),
        extra_threshold in 0u64..=80,
    ) {
        let to_pairs = |items: &[u32]| -> Vec<(u32, u16)> {
            items.iter().enumerate().map(|(rank, &item)| (item, rank as u16)).collect()
        };
        let mut pa = to_pairs(&a);
        let mut pb = to_pairs(&b);
        if scramble {
            pa.reverse();
            let mid = pb.len() / 2;
            pb.rotate_left(mid);
        }
        let mut sa = pa.clone();
        let mut sb = pb.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        let exact = footrule_pairs(&pa, &pb);
        for threshold in [exact, exact.saturating_sub(1), 0, u64::MAX, extra_threshold] {
            prop_assert_eq!(
                footrule_sorted_within(&sa, &sb, threshold),
                footrule_pairs_within(&pa, &pb, threshold),
                "lengths ({}, {}), threshold {}", pa.len(), pb.len(), threshold
            );
        }
    }

    // ---- The shadow view is what the merge kernel assumes it is, and
    // OrderedRanking::footrule_within equals the naive scan over the
    // canonical pairs. ----

    #[test]
    fn ordered_ranking_fast_path_is_exact(
        (a, b) in ranking_pair(7, 14),
        threshold in 0u64..=56,
    ) {
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        prop_assert!(oa.pairs_by_item().windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(
            oa.footrule_within(&ob, threshold),
            footrule_pairs_within(oa.pairs(), ob.pairs(), threshold)
        );
    }

    // ---- The overlap filter in front of the merge is exact: for every raw
    // threshold of the length, `verify_candidate` (position filter on a truly
    // shared item → signature overlap filter → merge) agrees with the
    // retained naive scan on `Some`/`None` and on the distance, so the filter
    // never fires on a pair that qualifies. `stride` spreads the item ids
    // over the signature's hash range; the small universe keeps overlaps
    // high. ----

    #[test]
    fn verify_candidate_equals_naive_scan_at_every_threshold(
        (a, b) in ranking_pair(7, 16),
        stride in prop_oneof![Just(1u32), Just(128), Just(65_537), 1u32..=1_000_000],
    ) {
        let spread = |r: &Ranking, id| {
            Ranking::new_unchecked(id, r.items().iter().map(|&i| i * stride).collect())
        };
        let (a, b) = (spread(&a, 1), spread(&b, 2));
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        let shared = oa
            .pairs()
            .iter()
            .find_map(|&(item, rank)| ob.rank_of(item).map(|other| (usize::from(rank), other)));
        prop_assert!(oa.overlap_upper_bound(&ob) >= a.overlap(&b));
        for theta_raw in 0..=max_raw_distance(7) {
            let naive = footrule_pairs_within(oa.pairs(), ob.pairs(), theta_raw);
            for hint in [None, shared] {
                let outcome = verify_candidate(&oa, &ob, hint, theta_raw, true);
                prop_assert_eq!(
                    outcome.distance(), naive,
                    "θr = {}, hint {:?}, outcome {:?}", theta_raw, hint, outcome
                );
                if naive.is_some() {
                    prop_assert_eq!(outcome, Verification::Within(footrule_raw(&a, &b)));
                }
            }
        }
    }

    // ---- raw_threshold equals exact rational arithmetic on decimal θ. ----

    #[test]
    fn raw_threshold_is_exact_on_decimal_grid(num in 0u64..=1000, k in 5usize..=50) {
        let theta = num as f64 / 1000.0;
        let exact = (u128::from(num) * u128::from(max_raw_distance(k)) / 1000) as u64;
        prop_assert_eq!(raw_threshold(k, theta), exact);
    }
}

proptest! {
    // ---- Variable-length bounds (footnote 1). ----

    #[test]
    fn varlen_overlap_bound_is_sound(
        a in proptest::sample::subsequence((0u32..12).collect::<Vec<u32>>(), 3..=7).prop_shuffle(),
        b in proptest::sample::subsequence((0u32..12).collect::<Vec<u32>>(), 3..=7).prop_shuffle(),
    ) {
        use topk_rankings::varlen::{min_distance_given_lengths, min_distance_given_overlap_var};
        let a = Ranking::new_unchecked(1, a);
        let b = Ranking::new_unchecked(2, b);
        let o = a.overlap(&b);
        let d = footrule_raw(&a, &b);
        prop_assert!(d >= min_distance_given_overlap_var(a.k(), b.k(), o));
        prop_assert!(d >= min_distance_given_lengths(a.k(), b.k()));
    }

    #[test]
    fn varlen_prefix_filter_is_complete(
        a in proptest::sample::subsequence((0u32..12).collect::<Vec<u32>>(), 3..=7).prop_shuffle(),
        b in proptest::sample::subsequence((0u32..12).collect::<Vec<u32>>(), 3..=7).prop_shuffle(),
        theta_raw in 0u64..=40,
    ) {
        use topk_rankings::varlen::{min_overlap_var, prefix_len_var};
        let a = Ranking::new_unchecked(1, a);
        let b = Ranking::new_unchecked(2, b);
        if footrule_raw(&a, &b) <= theta_raw {
            // Disjoint-admissible length pairs are routed via the sentinel
            // in the join; the prefix guarantee applies otherwise.
            if min_overlap_var(a.k(), b.k(), theta_raw) == Some(0) {
                return Ok(());
            }
            let lengths = [a.k(), b.k()];
            let freq = FrequencyTable::from_rankings([&a, &b]);
            let oa = OrderedRanking::by_frequency(&a, &freq);
            let ob = OrderedRanking::by_frequency(&b, &freq);
            let pa = prefix_len_var(a.k(), &lengths, theta_raw);
            let pb = prefix_len_var(b.k(), &lengths, theta_raw);
            let shares = oa.prefix(pa).iter().any(|(item, _)| {
                ob.prefix(pb).iter().any(|(other, _)| other == item)
            });
            prop_assert!(
                shares,
                "pair within θ={} escaped varlen prefixes ({}, {})",
                theta_raw, pa, pb
            );
        }
    }
}
