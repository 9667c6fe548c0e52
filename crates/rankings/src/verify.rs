//! Shared candidate-verification kernels.
//!
//! Every join algorithm in the paper funnels candidate pairs through the same
//! steps: the **position filter** on the shared (indexed) item, then the
//! **overlap filter** on the two overlap signatures (*beyond the paper*: the
//! paper's overlap bound applied per candidate, then a bound on the rank
//! weight of the items the signatures prove absent, see
//! [`verify_candidate`]), then the early-exit Footrule computation. Keeping
//! the kernel in one place guarantees that VJ, VJ-NL, CL and CL-P verify
//! identically.

#![warn(clippy::indexing_slicing)]

use crate::bounds::{min_distance_given_overlap, position_filter_prunes};
use crate::ordered::OrderedRanking;

/// Outcome of verifying one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The pair is a join result with the given raw distance.
    Within(u64),
    /// Pruned by the position filter on the shared item (no distance
    /// computation was performed).
    PositionPruned,
    /// Pruned by the overlap filter: the two signatures prove the pair shares
    /// too few items, or misses too much rank weight, to be within the
    /// threshold (no distance computation was performed).
    OverlapPruned,
    /// The full (early-exit) distance computation exceeded the threshold.
    DistanceExceeded,
}

impl Verification {
    /// The raw distance if the pair qualified.
    #[inline]
    pub fn distance(self) -> Option<u64> {
        match self {
            Verification::Within(d) => Some(d),
            _ => None,
        }
    }
}

/// Verifies a candidate pair that was generated because both rankings
/// contain `shared_item_ranks = (rank_in_a, rank_in_b)` — the original ranks
/// of the inverted-index token that brought them together.
///
/// Applies the position filter first (§4: a shared item with rank difference
/// `> θ/2` certifies the pair is not a result), then the overlap filter in
/// two stages — a count bound and a rank-weight bound — and only then
/// computes the distance with early exit.
///
/// Both stages are exact. Let `S` be the set of shared items.
///
/// **Count bound**, with `u =` [`OrderedRanking::overlap_upper_bound`]:
///
/// 1. the distinct signature bits of any subset `X` of a ranking number at
///    least `|X| − lost`, and every bit of `S` is set in both signatures, so
///    `popcount(sig_a & sig_b) ≥ |S| − min(lost_a, lost_b)`, i.e. `|S| ≤ u`;
/// 2. two length-`k` rankings sharing `|S|` items are at raw distance
///    `F ≥ (k − |S|)(k − |S| + 1)` ([`min_distance_given_overlap`]);
/// 3. that bound falls as the overlap grows, so `F ≥ (k − u)(k − u + 1)`,
///    and a pair with `(k − u)(k − u + 1) > θ` cannot qualify.
///
/// The count bound assumes every absent item sits at the bottom of its
/// list. The **rank-weight bound**
/// ([`OrderedRanking::absent_weight_lower_bound`]) looks at where they sit:
///
/// 1. with the location parameter `ℓ = k`, give each item the weight
///    `w(i) = k − rank(i)` in a ranking that holds it and 0 elsewhere; then
///    `|rank_a(i) − rank_b(i)| = |w_a(i) − w_b(i)|` for every item of the
///    union, and each ranking's weights sum to `k(k+1)/2`;
/// 2. since `|x − y| = x + y − 2·min(x, y)`,
///    `F = k(k+1) − 2·Σ_{i∈S} min(w_a(i), w_b(i))`, and bounding each
///    `min` by `w_a(i)` gives `F ≥ 2·Σ_{i∈a∖S} w_a(i)`;
/// 3. a shared item sets its signature bit in the same word of both
///    signatures, so with `common` the bits the two signatures share, word
///    by word, folded to 64 (`bit & 63`), an item of `a` whose folded bit
///    is outside `common` is certainly in `a ∖ S`. Each such folded bit
///    adds the OR of the scaled weights `w_a(i) >> s` of `a`'s items on it
///    (at most their sum), shifted back by `s` (which rounds each weight
///    down): the weight planes give this `D_a` in four popcounts, and
///    `D_a ≤ Σ_{i∈a∖S} w_a(i)`. So `F ≥ 2·D_a`, likewise `F ≥ 2·D_b`, and
///    a pair with `D_a > ⌊θ/2⌋` or `D_b > ⌊θ/2⌋` (the distances are
///    integers) cannot qualify.
///
/// The exact rank weight implies the count bound (the `m` lightest weights
/// sum to `m(m+1)/2`); the folded, rounded `D_a` does not, so both run, the
/// count bound first as the cheaper. Both are booked as
/// [`Verification::OverlapPruned`].
///
/// Both bounds need equal lengths; a mixed-length pair falls through to the
/// merge.
#[inline]
pub fn verify_candidate(
    a: &OrderedRanking,
    b: &OrderedRanking,
    shared_item_ranks: Option<(usize, usize)>,
    theta_raw: u64,
    use_position_filter: bool,
) -> Verification {
    if use_position_filter {
        if let Some((rank_a, rank_b)) = shared_item_ranks {
            if position_filter_prunes(rank_a, rank_b, theta_raw) {
                return Verification::PositionPruned;
            }
        }
    }
    let k = a.k();
    if k == b.k() {
        let half = theta_raw / 2;
        if min_distance_given_overlap(k, a.overlap_upper_bound(b).min(k)) > theta_raw
            || a.absent_weight_lower_bound(b) > half
            || b.absent_weight_lower_bound(a) > half
        {
            return Verification::OverlapPruned;
        }
    }
    match a.footrule_within(b, theta_raw) {
        Some(d) => Verification::Within(d),
        None => Verification::DistanceExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{footrule_pairs, footrule_pairs_within, max_raw_distance};
    use crate::ordered::{
        fold_partner, items_by_signature_bit as items_by_bit, sharing, FrequencyTable,
        OrderedRanking,
    };
    use crate::ranking::Ranking;

    fn ordered(id: u64, items: &[u32]) -> OrderedRanking {
        let r = Ranking::new(id, items.to_vec()).unwrap();
        OrderedRanking::by_frequency(&r, &FrequencyTable::default())
    }

    #[test]
    fn verify_within() {
        let a = ordered(1, &[1, 2, 3, 4, 5]);
        let b = ordered(2, &[2, 1, 3, 4, 5]);
        let v = verify_candidate(&a, &b, Some((0, 1)), 2, true);
        assert_eq!(v, Verification::Within(2));
        assert_eq!(v.distance(), Some(2));
    }

    #[test]
    fn verify_position_pruned_before_distance() {
        let a = ordered(1, &[1, 2, 3, 4, 5]);
        let b = ordered(2, &[5, 2, 3, 4, 1]);
        // Shared item 1 has ranks (0, 4): 2·4 = 8 > θ = 7 → pruned.
        let v = verify_candidate(&a, &b, Some((0, 4)), 7, true);
        assert_eq!(v, Verification::PositionPruned);
        // With the filter disabled the distance computation catches it.
        let v = verify_candidate(&a, &b, Some((0, 4)), 7, false);
        assert_eq!(v, Verification::DistanceExceeded);
    }

    #[test]
    fn verify_distance_exceeded() {
        // Same items (the overlap filter has nothing to say), reversed: F = 4.
        let a = ordered(1, &[1, 2, 3]);
        let b = ordered(2, &[3, 2, 1]);
        let v = verify_candidate(&a, &b, None, 3, true);
        assert_eq!(v, Verification::DistanceExceeded);
        assert_eq!(v.distance(), None);
    }

    /// `verify_candidate` against the retained naive scan at every raw
    /// threshold of the pair's length (and one beyond): same `Some`/`None`,
    /// same distance, with and without a shared-item hint.
    fn assert_agrees_with_naive_scan(a: &OrderedRanking, b: &OrderedRanking) {
        let exact = footrule_pairs(a.pairs(), b.pairs());
        let k = a.k().max(b.k());
        let thresholds: Vec<u64> = if k <= 10 {
            (0..=max_raw_distance(k) + 1).collect()
        } else {
            // Too many to sweep: the pair's own distance and a spread of
            // overlap boundaries, each with its neighbours.
            (0..=k)
                .step_by(k / 8)
                .map(|o| min_distance_given_overlap(k, o))
                .chain([exact])
                .flat_map(|t| [t.saturating_sub(1), t, t + 1])
                .collect()
        };
        for theta in thresholds {
            let naive = footrule_pairs_within(a.pairs(), b.pairs(), theta);
            assert_eq!(naive, (exact <= theta).then_some(exact));
            let got = verify_candidate(a, b, None, theta, true);
            assert_eq!(got.distance(), naive, "θ = {theta}, outcome {got:?}");
            assert_eq!(verify_candidate(b, a, None, theta, false), got);
        }
    }

    #[test]
    fn overlap_filter_is_exact_at_every_overlap_boundary() {
        // k = 10, collision-free items, exactly `o` shared at equal top ranks
        // and the private items at the bottom: the cheapest arrangement, so
        // F = (k − o)(k − o + 1) exactly and u = o exactly.
        let k = 10;
        let pool = items_by_bit(2 * k, true);
        for o in 0..=k {
            let a = ordered(1, &pool[..k]);
            let b = sharing(&pool, k, o);
            assert_eq!(a.overlap_upper_bound(&b), o);
            let boundary = min_distance_given_overlap(k, o);
            assert_eq!(a.footrule_raw(&b), boundary);
            assert_eq!(
                verify_candidate(&a, &b, None, boundary, true),
                Verification::Within(boundary),
                "o = {o}: a pair at exactly its overlap bound qualifies"
            );
            assert_eq!(
                verify_candidate(&a, &b, None, boundary + 1, true),
                Verification::Within(boundary)
            );
            if let Some(below) = boundary.checked_sub(1) {
                assert_eq!(
                    verify_candidate(&a, &b, None, below, true),
                    Verification::OverlapPruned,
                    "o = {o}: one below the bound the signatures alone decide"
                );
            }
            assert_agrees_with_naive_scan(&a, &b);
        }
    }

    #[test]
    fn shared_items_on_one_signature_bit_are_not_pruned() {
        // Every item of both rankings lands on one bit: popcount(a & b) = 1
        // whatever the overlap, and only `lost` keeps the bound sound.
        let k = 6;
        let pool = items_by_bit(2 * k, false);
        let a = ordered(1, &pool[..k]);
        for o in 0..=k {
            let b = sharing(&pool, k, o);
            assert_eq!(
                a.overlap_upper_bound(&b),
                k,
                "1 common bit + min(lost) = k − 1"
            );
            assert_agrees_with_naive_scan(&a, &b);
        }
        // Colliding against collision-free: min(lost) = 0, so one shared
        // colliding item is all the signatures can vouch for — and all there is.
        let free = items_by_bit(k + 1, true);
        let b_items: Vec<u32> = std::iter::once(pool[0])
            .chain(free[1..k].iter().copied())
            .collect();
        let b = ordered(3, &b_items);
        assert_eq!(a.overlap_upper_bound(&b), 1);
        assert_agrees_with_naive_scan(&a, &b);
    }

    #[test]
    fn tiny_and_oversized_k_agree_with_the_naive_scan() {
        // k = 1 and 2: the only overlaps are none, one, (both).
        for (a_items, b_items) in [
            (vec![1u32], vec![1u32]),
            (vec![1], vec![2]),
            (vec![1, 2], vec![2, 1]),
            (vec![1, 2], vec![1, 3]),
            (vec![1, 2], vec![3, 4]),
        ] {
            assert_agrees_with_naive_scan(&ordered(1, &a_items), &ordered(2, &b_items));
        }
        // k = 200 > 128 bits: at least 72 items are lost on each side, the
        // bound saturates towards k and the filter must simply stop pruning.
        let a_items: Vec<u32> = (0..200).collect();
        let a = ordered(1, &a_items);
        for shift in [0u32, 1, 50, 150, 200, 10_000] {
            let mut b_items: Vec<u32> = (shift..shift + 200).collect();
            b_items.reverse();
            let b = ordered(2, &b_items);
            assert!(a.overlap_upper_bound(&b) >= 200usize.saturating_sub(shift as usize));
            assert_agrees_with_naive_scan(&a, &b);
        }
    }

    #[test]
    fn mixed_lengths_fall_through_to_the_merge() {
        // A length-3 ranking and its length-5 extension: the two extra items
        // sit at ranks 3 and 4 against the artificial rank 3, so F = 1 — far
        // below what (k − o)(k − o + 1) would claim for either length. The
        // equal-length overlap bound must not be applied.
        let a = ordered(1, &[1, 2, 3]);
        let b = ordered(2, &[1, 2, 3, 4, 5]);
        assert_eq!(
            verify_candidate(&a, &b, None, 1, true),
            Verification::Within(1)
        );
        assert_eq!(
            verify_candidate(&a, &b, None, 0, true),
            Verification::DistanceExceeded
        );
        // Disjoint mixed-length pair, far apart: still the merge's verdict.
        let c = ordered(3, &[7, 8, 9, 10, 11]);
        assert_eq!(
            verify_candidate(&a, &c, None, 5, true),
            Verification::DistanceExceeded
        );
        assert_agrees_with_naive_scan(&a, &b);
        assert_agrees_with_naive_scan(&a, &c);
    }

    /// Every top-`k` list over `universe`: each ordered choice of `k`
    /// distinct items.
    fn all_lists(universe: &[u32], k: usize) -> Vec<Vec<u32>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut lists = Vec::new();
        for shorter in all_lists(universe, k - 1) {
            for &item in universe {
                if !shorter.contains(&item) {
                    let mut list = shorter.clone();
                    list.push(item);
                    lists.push(list);
                }
            }
        }
        lists
    }

    #[test]
    fn rank_weight_bound_holds_for_every_small_pair_and_threshold() {
        // Half the universe on one signature bit, half on distinct bits, so
        // both proven-absent and collision-hidden items occur. Miri gets a
        // smaller universe and k to stay within its time budget.
        let (half, max_k) = if cfg!(miri) { (2, 3) } else { (3, 4) };
        let mut universe = items_by_bit(half, false);
        universe.extend_from_slice(&items_by_bit(half + 1, true)[1..]);
        for k in 1..=max_k {
            let lists: Vec<OrderedRanking> = all_lists(&universe, k)
                .iter()
                .map(|items| ordered(1, items))
                .collect();
            for a in &lists {
                for b in &lists {
                    let exact = footrule_pairs(a.pairs(), b.pairs());
                    // 2·D_a ≤ F, i.e. D_a ≤ ⌊F/2⌋.
                    assert!(
                        a.absent_weight_lower_bound(b) <= exact / 2,
                        "{a:?} vs {b:?}"
                    );
                    for theta in 0..=max_raw_distance(k) {
                        let outcome = verify_candidate(a, b, None, theta, true);
                        assert_eq!(
                            outcome.distance(),
                            footrule_pairs_within(a.pairs(), b.pairs(), theta),
                            "{a:?} vs {b:?} at θ = {theta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn folded_bound_holds_for_every_small_pair_on_shared_folded_bits() {
        // Six items: two on one signature bit, a third whose bit differs
        // from theirs by exactly 64 (all three share a folded bit), and
        // three on folded bits of their own. Miri gets four items and k ≤ 3.
        let on_one_bit = items_by_bit(2, false);
        let mut universe = on_one_bit.clone();
        universe.push(fold_partner(on_one_bit[0]));
        let (own, max_k) = if cfg!(miri) { (1, 3) } else { (3, 4) };
        universe.extend_from_slice(&items_by_bit(own + 1, true)[1..]);
        for k in 1..=max_k {
            let lists: Vec<OrderedRanking> = all_lists(&universe, k)
                .iter()
                .map(|items| ordered(1, items))
                .collect();
            for a in &lists {
                for b in &lists {
                    let absent: u64 = a
                        .pairs()
                        .iter()
                        .filter(|&&(item, _)| b.rank_of(item).is_none())
                        .map(|&(_, rank)| (k - usize::from(rank)) as u64)
                        .sum();
                    let bound = a.absent_weight_lower_bound(b);
                    assert!(bound <= absent, "{a:?} vs {b:?}");
                    assert!(
                        2 * bound <= footrule_pairs(a.pairs(), b.pairs()),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_items_at_the_bottom_are_pruned_by_rank_weight() {
        // k = 10, collision-free items. `b` holds `a`'s bottom eight items at
        // its top and two private items below; `a`'s top two items (weights
        // 10 and 9) are absent from `b`, so F ≥ 2·19 = 38. The count bound
        // sees eight shared items and only claims F ≥ 2·3 = 6.
        let k = 10;
        let pool = items_by_bit(12, true);
        let a = ordered(1, &pool[..k]);
        let b = ordered(2, &pool[2..]);
        assert_eq!(a.overlap_upper_bound(&b), 8);
        assert_eq!(min_distance_given_overlap(k, 8), 6);
        assert_eq!(a.footrule_raw(&b), 38);
        // The count bound lets θ = 20 through to a merge that fails; the
        // rank weight rejects the pair before it.
        assert_eq!(
            verify_candidate(&a, &b, None, 20, true),
            Verification::OverlapPruned
        );
        assert_eq!(
            verify_candidate(&b, &a, None, 37, true),
            Verification::OverlapPruned
        );
        // Here the bound is tight: at θ = F the pair qualifies.
        assert_eq!(
            verify_candidate(&a, &b, None, 38, true),
            Verification::Within(38)
        );
        assert_agrees_with_naive_scan(&a, &b);
    }
}
