//! Distance functions for top-k rankings.
//!
//! The paper uses Spearman's Footrule adaptation for top-k lists (Fagin,
//! Kumar, Sivakumar: *Comparing Top k Lists*, SIAM J. Discrete Math. 2003):
//!
//! ```text
//! F(τ, σ) = Σ_{i ∈ D_τ ∪ D_σ} |τ(i) − σ(i)|
//! ```
//!
//! where ranks run from `0` to `k − 1` and items not contained in a ranking
//! receive the artificial rank `l = k`. With both lists of the same size `k`
//! the maximum distance is `k·(k+1)` (two disjoint rankings) and the minimum
//! is `0` (identical rankings). The adaptation is a **metric** — in
//! particular the triangle inequality holds — which is what licenses the
//! clustering algorithm's pruning (paper §5, and property-tested in this
//! crate).

#![warn(clippy::indexing_slicing)]

use crate::ranking::{rank_u64, Ranking};

// The formula lives in `invariants` (the lower module — `distance` calls
// into it for checks, so hosting it there keeps the module graph acyclic)
// but is part of this module's public API.
pub use crate::invariants::max_raw_distance;

/// Converts a normalized threshold `θ ∈ [0, 1]` into a raw distance bound for
/// rankings of length `k`, rounding down (a pair is a result iff
/// `raw ≤ raw_threshold`).
///
/// The rounding is **epsilon-robust**: when `θ` is (the f64 parse of) a
/// decimal whose exact product with `k(k+1)` is an integer, the f64 product
/// can land a few ulps *below* that integer — e.g. `0.3 × 110 =
/// 32.999999999999996` — and a bare `floor` would silently drop result pairs
/// sitting at exactly the threshold. Products within a few ulps of an
/// integer snap to it; genuinely fractional products still floor.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "θ ∈ [0,1] is checked on entry, so both branches cast an integer-valued, non-negative f64 in [0, max] — exact in u64"
)]
pub fn raw_threshold(k: usize, theta: f64) -> u64 {
    crate::invariants::check_normalized(theta);
    #[expect(
        clippy::cast_precision_loss,
        reason = "max = k·(k+1) ≤ ~2^33 for k ≤ MAX_K — exact in f64"
    )]
    let max = max_raw_distance(k) as f64;
    let scaled = theta * max;
    let nearest = scaled.round();
    // Parse error of a decimal θ is ≤ ½ ulp and the product adds ≤ ½ ulp,
    // so 4 ulps of the maximum distance comfortably covers every "really an
    // integer" case without capturing true fractions (the nearest
    // non-integer rational θ·k(k+1) with a small decimal denominator is
    // orders of magnitude further away).
    if (scaled - nearest).abs() <= max * f64::EPSILON * 4.0 {
        nearest as u64
    } else {
        scaled.floor() as u64
    }
}

/// Raw Footrule distance between two top-k rankings.
///
/// Works for rankings of equal or different lengths; missing items get the
/// artificial rank `l = k` *of the ranking they are missing from*, matching
/// the footnote in §1.1 (for variable-length rankings only the distance
/// bounds change, not the distance itself).
pub fn footrule_raw(a: &Ranking, b: &Ranking) -> u64 {
    let la = a.k() as u64;
    let lb = b.k() as u64;
    let mut sum = 0u64;
    for (item, rank_a) in a.iter_with_ranks() {
        let rank_a = rank_u64(rank_a);
        match b.rank_of(item) {
            Some(rank_b) => sum += rank_a.abs_diff(rank_u64(rank_b)),
            None => sum += rank_a.abs_diff(lb),
        }
    }
    for (item, rank_b) in b.iter_with_ranks() {
        if !a.contains(item) {
            sum += rank_u64(rank_b).abs_diff(la);
        }
    }
    crate::invariants::check_raw_distance(sum, a.k(), b.k());
    sum
}

/// Normalized Footrule distance in `[0, 1]`.
///
/// For rankings of different lengths the normalizer uses the larger `k`,
/// which keeps the value in `[0, 1]`.
pub fn footrule_norm(a: &Ranking, b: &Ranking) -> f64 {
    let k = a.k().max(b.k());
    #[expect(
        clippy::cast_precision_loss,
        reason = "raw ≤ max = k·(k+1) ≤ ~2^33 — both sides exact in f64"
    )]
    let norm = footrule_raw(a, b) as f64 / max_raw_distance(k) as f64;
    crate::invariants::check_normalized(norm);
    norm
}

/// Early-exit Footrule verification: returns `Some(distance)` iff
/// `F(a, b) ≤ threshold_raw`, bailing out as soon as the partial sum exceeds
/// the threshold. This is the verification kernel of all join algorithms.
pub fn footrule_within(a: &Ranking, b: &Ranking, threshold_raw: u64) -> Option<u64> {
    let lb = b.k() as u64;
    let la = a.k() as u64;
    let mut sum = 0u64;
    for (item, rank_a) in a.iter_with_ranks() {
        let rank_a = rank_u64(rank_a);
        sum += match b.rank_of(item) {
            Some(rank_b) => rank_a.abs_diff(rank_u64(rank_b)),
            None => rank_a.abs_diff(lb),
        };
        if sum > threshold_raw {
            return None;
        }
    }
    for (item, rank_b) in b.iter_with_ranks() {
        if !a.contains(item) {
            sum += rank_u64(rank_b).abs_diff(la);
            if sum > threshold_raw {
                return None;
            }
        }
    }
    crate::invariants::check_within_threshold(sum, threshold_raw);
    crate::invariants::check_raw_distance(sum, a.k(), b.k());
    Some(sum)
}

/// Raw Footrule distance over `(item, original_rank)` pair slices, the
/// representation used by [`crate::ordered::OrderedRanking`].
///
/// Both slices must stem from rankings of length `k_a` resp. `k_b` (i.e. the
/// original ranks are `< k`); the item order within the slices is irrelevant.
pub fn footrule_pairs(a: &[(u32, u16)], b: &[(u32, u16)]) -> u64 {
    footrule_pairs_within(a, b, u64::MAX).expect("u64::MAX threshold never prunes")
}

/// Early-exit variant of [`footrule_pairs`]: `Some(distance)` iff the
/// distance is `≤ threshold_raw`.
///
/// This is the **retained naive scan path** — O(k²) per pair via a linear
/// `find` per item, kept as the order-insensitive reference implementation
/// that the merge fast path ([`footrule_sorted_within`]) is differentially
/// tested against. Hot join code goes through
/// [`crate::ordered::OrderedRanking::footrule_within`] instead, which uses
/// the item-sorted shadow view.
pub fn footrule_pairs_within(
    a: &[(u32, u16)],
    b: &[(u32, u16)],
    threshold_raw: u64,
) -> Option<u64> {
    let la = a.len() as u64;
    let lb = b.len() as u64;
    let mut sum = 0u64;
    for &(item, rank_a) in a {
        let rank_a = u64::from(rank_a);
        sum += match b.iter().find(|(i, _)| *i == item) {
            Some(&(_, rank_b)) => rank_a.abs_diff(u64::from(rank_b)),
            None => rank_a.abs_diff(lb),
        };
        if sum > threshold_raw {
            return None;
        }
    }
    for &(item, rank_b) in b {
        if !a.iter().any(|(i, _)| *i == item) {
            sum += u64::from(rank_b).abs_diff(la);
            if sum > threshold_raw {
                return None;
            }
        }
    }
    crate::invariants::check_within_threshold(sum, threshold_raw);
    crate::invariants::check_raw_distance(sum, a.len(), b.len());
    Some(sum)
}

/// Early-exit Footrule over **item-sorted** `(item, original_rank)` slices —
/// the two-pointer merge fast path behind
/// [`crate::ordered::OrderedRanking::footrule_within`].
///
/// Both slices must be sorted by strictly ascending item id (the shadow view
/// every [`crate::ordered::OrderedRanking`] maintains); the merge classifies
/// every item of the union as shared / missing-from-`b` / missing-from-`a`
/// in one O(k_a + k_b) pass instead of [`footrule_pairs_within`]'s O(k²)
/// scan. The outcome is bit-for-bit the naive path's: partial sums are
/// permutations of the same non-negative terms, so `Some`/`None` and the
/// returned distance agree for every threshold (property-tested in
/// `tests/props.rs` and in this module's differential test).
pub fn footrule_sorted_within(
    a: &[(u32, u16)],
    b: &[(u32, u16)],
    threshold_raw: u64,
) -> Option<u64> {
    crate::invariants::check_item_sorted(a);
    crate::invariants::check_item_sorted(b);
    let la = a.len() as u64;
    let lb = b.len() as u64;
    let mut sum = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    #[expect(
        clippy::indexing_slicing,
        reason = "loop guard: i < a.len() and j < b.len()"
    )]
    while i < a.len() && j < b.len() {
        let (item_a, rank_a) = a[i];
        let (item_b, rank_b) = b[j];
        sum += if item_a == item_b {
            i += 1;
            j += 1;
            u64::from(rank_a).abs_diff(u64::from(rank_b))
        } else if item_a < item_b {
            i += 1;
            u64::from(rank_a).abs_diff(lb)
        } else {
            j += 1;
            u64::from(rank_b).abs_diff(la)
        };
        if sum > threshold_raw {
            return None;
        }
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "i only ever incremented while < a.len(), so i ≤ a.len()"
    )]
    for &(_, rank_a) in &a[i..] {
        sum += u64::from(rank_a).abs_diff(lb);
        if sum > threshold_raw {
            return None;
        }
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "j only ever incremented while < b.len(), so j ≤ b.len()"
    )]
    for &(_, rank_b) in &b[j..] {
        sum += u64::from(rank_b).abs_diff(la);
        if sum > threshold_raw {
            return None;
        }
    }
    crate::invariants::check_within_threshold(sum, threshold_raw);
    crate::invariants::check_raw_distance(sum, a.len(), b.len());
    Some(sum)
}

/// Kendall's tau adaptation for top-k lists with penalty parameter `p = 0`
/// (the "optimistic" variant `K^(0)` of Fagin et al.).
///
/// Counts discordant pairs over the union of the two domains:
///
/// * both items in both lists → 1 if the relative order differs,
/// * `i, j` in τ but only `i` in σ → 1 if τ ranks `j` ahead of `i`,
/// * `i` only in τ and `j` only in σ → 0 (case 4 of Fagin et al. with
///   `p = 0`; with `p = 1/2` each such pair would contribute `1/2`),
/// * `i, j` both in exactly one list, neither in the other → 1.
///
/// Not used by the join algorithms (the paper's clustering only requires a
/// metric and uses Footrule), but provided because Footrule and Kendall's tau
/// are within constant factors of each other (Diaconis–Graham), which makes
/// this useful for sanity checks and downstream users.
pub fn kendall_tau_topk(a: &Ranking, b: &Ranking) -> u64 {
    let mut domain: Vec<u32> = a.items().to_vec();
    for &item in b.items() {
        if !a.contains(item) {
            domain.push(item);
        }
    }
    let mut discordant = 0u64;
    for (x, &i) in domain.iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "x < domain.len() from enumerate, so x + 1 ≤ domain.len()"
        )]
        for &j in &domain[x + 1..] {
            let (ra_i, ra_j) = (a.rank_of(i), a.rank_of(j));
            let (rb_i, rb_j) = (b.rank_of(i), b.rank_of(j));
            discordant += match ((ra_i, ra_j), (rb_i, rb_j)) {
                // Case 1: both pairs ranked in both lists.
                ((Some(ai), Some(aj)), (Some(bi), Some(bj))) => u64::from((ai < aj) != (bi < bj)),
                // Case 2: i,j ∈ a, only one of them ∈ b (or vice versa): the
                // list containing both fixes the order; the other list ranks
                // its present item ahead of the absent one.
                ((Some(ai), Some(aj)), (Some(_), None)) => u64::from(aj < ai),
                ((Some(ai), Some(aj)), (None, Some(_))) => u64::from(ai < aj),
                ((Some(_), None), (Some(bi), Some(bj))) => u64::from(bj < bi),
                ((None, Some(_)), (Some(bi), Some(bj))) => u64::from(bi < bj),
                // Case 3: i appears only in a, j appears only in b (each list
                // ranks its own item ahead) → discordant.
                ((Some(_), None), (None, Some(_))) => 1,
                ((None, Some(_)), (Some(_), None)) => 1,
                // Case 4 (p = 0): i,j together in one list only, no
                // information from the other list → optimistic 0.
                ((Some(_), Some(_)), (None, None)) => 0,
                ((None, None), (Some(_), Some(_))) => 0,
                // Remaining combinations cannot occur for items drawn from
                // the union of the domains.
                _ => 0,
            };
        }
    }
    discordant
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    #[test]
    fn paper_intro_example() {
        // §1.1: τ1 = [2,5,4,3,1], τ2 = [1,4,5,9,0], l = 5 (0-based ranks)
        // gives F = 16. (The paper's prose uses 1-based ranks with l = 6 and
        // reaches the same value, as shifting all ranks by one cancels out.)
        let t1 = r(1, &[2, 5, 4, 3, 1]);
        let t2 = r(2, &[1, 4, 5, 9, 0]);
        assert_eq!(footrule_raw(&t1, &t2), 16);
        assert_eq!(footrule_raw(&t2, &t1), 16);
    }

    #[test]
    fn identical_rankings_have_distance_zero() {
        let t = r(1, &[3, 1, 4, 1 + 4, 9]);
        assert_eq!(footrule_raw(&t, &t), 0);
        assert_eq!(footrule_norm(&t, &t), 0.0);
    }

    #[test]
    fn disjoint_rankings_attain_the_maximum() {
        let a = r(1, &[0, 1, 2, 3, 4]);
        let b = r(2, &[10, 11, 12, 13, 14]);
        assert_eq!(footrule_raw(&a, &b), max_raw_distance(5));
        assert_eq!(footrule_norm(&a, &b), 1.0);
    }

    #[test]
    fn single_swap_costs_two() {
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[2, 1, 3, 4, 5]);
        assert_eq!(footrule_raw(&a, &b), 2);
    }

    #[test]
    fn figure_one_example() {
        // Figure 1: same domain, first p = 2 items disjoint, F = 8 = 2p².
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[3, 4, 1, 2, 5]);
        assert_eq!(footrule_raw(&a, &b), 8);
    }

    #[test]
    fn raw_threshold_rounds_down() {
        // k = 10 → max = 110. θ = 0.1 → 11.0 → 11; θ = 0.35 → 38.5 → 38.
        assert_eq!(raw_threshold(10, 0.1), 11);
        assert_eq!(raw_threshold(10, 0.35), 38);
        assert_eq!(raw_threshold(10, 0.0), 0);
        assert_eq!(raw_threshold(10, 1.0), 110);
    }

    #[test]
    fn raw_threshold_snaps_floating_point_near_misses() {
        // The motivating case: 0.3 × 110 = 32.999999999999996 in f64; a bare
        // floor would yield 32 and silently drop pairs at raw distance 33.
        assert_eq!(raw_threshold(10, 0.3), 33);
        // 0.7 × 42 = 29.399999999999999 → genuinely fractional → 29.
        assert_eq!(raw_threshold(6, 0.7), 29);
    }

    /// `raw_threshold` must agree with exact rational arithmetic for every
    /// θ that is a decimal with ≤ 3 fractional digits (the grid every
    /// experiment in the paper and this repo draws from), across the whole
    /// supported k range.
    #[test]
    fn raw_threshold_matches_exact_rational_grid() {
        for k in 5usize..=50 {
            let max = max_raw_distance(k);
            for num in 0u64..=1000 {
                // θ = num/1000, parsed the way a CLI flag or literal would be.
                let theta = num as f64 / 1000.0;
                let exact = (u128::from(num) * u128::from(max) / 1000) as u64;
                assert_eq!(
                    raw_threshold(k, theta),
                    exact,
                    "θ = {num}/1000, k = {k}, max = {max}"
                );
            }
        }
    }

    #[test]
    fn footrule_within_agrees_with_exact() {
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[2, 1, 3, 9, 5]);
        let exact = footrule_raw(&a, &b);
        assert_eq!(footrule_within(&a, &b, exact), Some(exact));
        assert_eq!(footrule_within(&a, &b, exact - 1), None);
        assert_eq!(footrule_within(&a, &b, u64::MAX), Some(exact));
    }

    /// Deterministic differential sweep: the merge fast path must agree with
    /// the retained naive scan on every pair — equal and variable lengths,
    /// scrambled pair order, and all four interesting threshold regimes
    /// (exact distance, exact − 1, 0, `u64::MAX`). The randomized proptest
    /// twin lives in `tests/props.rs`; this one always runs.
    #[test]
    fn merge_path_matches_naive_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for trial in 0..400 {
            let ka = rng.gen_range(1usize..=25);
            let kb = if trial % 3 == 0 {
                ka
            } else {
                rng.gen_range(1usize..=25)
            };
            let universe = rng.gen_range(4u32..40);
            let mut draw = |k: usize| -> Vec<(u32, u16)> {
                let mut items: Vec<u32> = (0..universe + k as u32).collect();
                use rand::seq::SliceRandom;
                items.shuffle(&mut rng);
                items.truncate(k);
                items
                    .into_iter()
                    .enumerate()
                    .map(|(rank, item)| (item, rank as u16))
                    .collect()
            };
            let mut a = draw(ka);
            let mut b = draw(kb);
            // Scramble the scan inputs: the naive path is order-insensitive.
            use rand::seq::SliceRandom;
            a.shuffle(&mut rng);
            b.shuffle(&mut rng);
            let mut a_sorted = a.clone();
            let mut b_sorted = b.clone();
            a_sorted.sort_unstable();
            b_sorted.sort_unstable();
            let exact = footrule_pairs(&a, &b);
            let thresholds = [exact, exact.saturating_sub(1), 0, u64::MAX];
            for &t in &thresholds {
                assert_eq!(
                    footrule_sorted_within(&a_sorted, &b_sorted, t),
                    footrule_pairs_within(&a, &b, t),
                    "trial {trial}: ka = {ka}, kb = {kb}, t = {t}, exact = {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_path_handles_empty_and_disjoint_slices() {
        assert_eq!(footrule_sorted_within(&[], &[], 0), Some(0));
        // Against the empty ranking (l_b = 0) each item contributes its own
        // rank: |0 − 0| + |1 − 0| = 1.
        let a = [(1u32, 0u16), (2, 1)];
        assert_eq!(footrule_sorted_within(&a, &[], u64::MAX), Some(1));
        let b = [(8u32, 0u16), (9, 1)];
        // Disjoint k = 2 rankings attain the maximum 2·3 = 6.
        assert_eq!(footrule_sorted_within(&a, &b, u64::MAX), Some(6));
        assert_eq!(footrule_sorted_within(&a, &b, 5), None);
    }

    #[test]
    fn footrule_pairs_matches_ranking_distance() {
        let a = r(1, &[7, 3, 9, 1, 5]);
        let b = r(2, &[3, 7, 9, 8, 2]);
        let pa: Vec<(u32, u16)> = a
            .iter_with_ranks()
            .map(|(item, rank)| (item, rank as u16))
            .collect();
        // Scramble the pair order: the distance must not depend on it.
        let mut pb: Vec<(u32, u16)> = b
            .iter_with_ranks()
            .map(|(item, rank)| (item, rank as u16))
            .collect();
        pb.reverse();
        assert_eq!(footrule_pairs(&pa, &pb), footrule_raw(&a, &b));
        let exact = footrule_raw(&a, &b);
        assert_eq!(footrule_pairs_within(&pa, &pb, exact - 1), None);
    }

    #[test]
    fn variable_length_rankings_are_supported() {
        // a = [1,2,3] (k=3), b = [1,2] (k=2):
        // item 1: |0-0| = 0; item 2: |1-1| = 0; item 3 missing in b → l_b = 2,
        // contributes |rank_a − l_b| = |2 − 2| = 0. Total 0.
        let a = r(1, &[1, 2, 3]);
        let b = r(2, &[1, 2]);
        assert_eq!(footrule_raw(&a, &b), 0);
        // b = [2,1]: item 1: |0-1| = 1, item 2: |1-0| = 1, item 3: 0 → 2.
        let b2 = r(3, &[2, 1]);
        assert_eq!(footrule_raw(&a, &b2), 2);
    }

    #[test]
    fn kendall_tau_zero_for_identical_and_positive_for_swap() {
        let a = r(1, &[1, 2, 3, 4, 5]);
        assert_eq!(kendall_tau_topk(&a, &a), 0);
        let b = r(2, &[2, 1, 3, 4, 5]);
        assert_eq!(kendall_tau_topk(&a, &b), 1);
    }

    #[test]
    fn kendall_tau_disjoint_lists() {
        // Disjoint lists of size k: every (i from a, j from b) pair is
        // discordant (case 3) → k² discordances; pairs within a single list
        // fall under case 4 and cost 0 with p = 0.
        let a = r(1, &[1, 2]);
        let b = r(2, &[8, 9]);
        assert_eq!(kendall_tau_topk(&a, &b), 4);
    }

    #[test]
    fn diaconis_graham_relation_holds() {
        // F ≤ 2·K for permutations of the same domain (Diaconis–Graham).
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[5, 3, 1, 2, 4]);
        let f = footrule_raw(&a, &b);
        let k = kendall_tau_topk(&a, &b);
        assert!(k <= f && f <= 2 * k, "K = {k}, F = {f}");
    }
}
