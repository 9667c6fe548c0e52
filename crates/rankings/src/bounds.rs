//! Pruning bounds for Footrule similarity joins over top-k rankings.
//!
//! All bounds operate on **raw** (unnormalized) distances; convert a
//! normalized threshold with [`crate::distance::raw_threshold`] first. The
//! derivations follow §4 of the paper and the authors' prior work
//! (Milchevski, Anand, Michel: EDBT 2015 \[18\]; Panev et al. \[19\]):
//!
//! * **Minimum distance given overlap.** If two rankings of length `k` share
//!   exactly `o` items, each of the `k − o` items private to a ranking
//!   contributes at least `k − rank` (it is missing from the other list and
//!   gets rank `l = k` there). The cheapest arrangement places the private
//!   items at the bottom positions `o, …, k−1`, contributing
//!   `Σ_{m=1}^{k−o} m = (k−o)(k−o+1)/2` per side, i.e.
//!   `F ≥ (k−o)(k−o+1)` in total.
//! * **Overlap prefix.** Inverting the bound: `F ≤ θ` forces an overlap of at
//!   least `ω = k − x` items where `x` is the largest integer with
//!   `x(x+1) ≤ θ`. By the classic prefix-filtering argument, two size-`k`
//!   sets sharing `ω` items must collide within their first `k − ω + 1`
//!   tokens of any *common* canonical order, so indexing a prefix of
//!   `p = k − ω + 1` items is complete.
//! * **Ordered prefix (Lemma 4.1).** If the first `p` (top-ranked) items of
//!   the two rankings are disjoint, then `F ≥ L(p, k) = 2p²` (for
//!   `p ≤ k/2`), so a prefix of the best-ranked `p_o = ⌊√(θ/2)⌋ + 1` items
//!   suffices — valid only for `θ < k²/2`, which covers every practical
//!   threshold (the paper notes `θ ≤ 0.4` normalized is common practice).
//! * **Position filter** (\[19\], used in §4). The rank sums of two top-k lists
//!   over the union of their domains are equal (both equal
//!   `k(k−1)/2 + (|D_τ ∪ D_σ| − k)·k`), so positive and negative rank
//!   deviations cancel: `Σ (τ(i) − σ(i)) = 0`. Hence a single shared item
//!   with rank difference `Δ` forces `F ≥ 2Δ`, i.e. a pair can be pruned as
//!   soon as one shared item satisfies `2Δ > θ` (the paper states this as
//!   `Δ > k(k+1)·θ_norm / 2`).

#![warn(clippy::indexing_slicing)]

use crate::ItemId;

/// Integer square root: the largest `r` with `r² ≤ n`.
///
/// Exact for all `u64` inputs (the float seed is refined with integer
/// comparisons), unlike a bare `(n as f64).sqrt() as u64`.
pub(crate) fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "float seed only — the loops below correct it with exact integer comparisons"
    )]
    let mut r = (n as f64).sqrt() as u64;
    // The float estimate is off by at most one in either direction for u64.
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

/// Minimum raw Footrule distance between two rankings of length `k` that
/// share exactly `o` items: `(k − o)(k − o + 1)`.
///
/// # Panics
/// Panics if `o > k`.
#[inline]
pub fn min_distance_given_overlap(k: usize, o: usize) -> u64 {
    assert!(o <= k, "overlap cannot exceed the ranking length");
    let d = (k - o) as u64;
    d * (d + 1)
}

/// The minimum number of items two rankings of length `k` must share to
/// possibly be within raw distance `theta_raw`.
///
/// Pairs sharing fewer items are guaranteed to have `F > theta_raw`. Returns
/// `0` when the threshold admits disjoint rankings (prefix filtering is then
/// powerless).
pub fn min_overlap(k: usize, theta_raw: u64) -> usize {
    // Largest x ≥ 0 with x(x+1) ≤ θ: x = ⌊(√(1+4θ) − 1) / 2⌋, computed
    // exactly with integer arithmetic.
    let x: u64 = (isqrt(1 + 4 * theta_raw) - 1) / 2;
    k.saturating_sub(x as usize)
}

/// The prefix length for the **overlap-based** prefix filter (`p = k − ω + 1`
/// where `ω` is [`min_overlap`]), clamped to `[1, k]`.
///
/// Any pair within `theta_raw` shares at least one item among their first `p`
/// tokens of a common canonical order — the completeness guarantee that VJ's
/// candidate generation relies on.
pub fn overlap_prefix_len(k: usize, theta_raw: u64) -> usize {
    let omega = min_overlap(k, theta_raw);
    let p = if omega == 0 {
        // Disjoint pairs can qualify: prefix filtering cannot prune anything
        // and the whole ranking must be indexed.
        k
    } else {
        (k - omega + 1).min(k)
    };
    crate::invariants::check_prefix_len(p, k);
    p
}

/// The **weighted** prefix length of a canonicalized ranking: the shortest
/// `p` whose suffix weight `W = Σ_{j ≥ p} (k − rank_j)` satisfies
/// `2·W < k(k+1) − theta_raw`, capped by [`overlap_prefix_len`].
///
/// `pairs` are the ranking's `(item, original_rank)` pairs in the canonical
/// order of the join ([`crate::OrderedRanking::pairs`]). Footrule over top-k
/// lists is a weighted overlap, `F(a, b) = k(k+1) − 2·Σ_{i∈a∩b} min(w_a(i),
/// w_b(i))` with `w(i) = k − rank(i)`. If the first item two rankings share
/// in a common order lies at or after position `p` of `a`, every shared item
/// does, so `F ≥ k(k+1) − 2·W_a(p) > theta_raw`: a pair within `theta_raw`
/// shares an item inside both weighted prefixes. The rule is sound only
/// under one global order — not for Lemma 4.1's rank-ordered prefixes.
///
/// The count prefix assumes the suffix holds the top-ranked items, the
/// heaviest case, so the cap never binds; it is kept as a guard. When
/// `theta_raw ≥ k(k+1)` disjoint rankings qualify and the whole ranking is
/// the prefix (`k`), as for the count prefix.
pub fn weighted_prefix_len(pairs: &[(ItemId, u16)], k: usize, theta_raw: u64) -> usize {
    let max = crate::distance::max_raw_distance(k);
    if theta_raw >= max {
        return k;
    }
    let need = max - theta_raw;
    // Grow the suffix from the back while twice its weight stays below need.
    let mut p = pairs.len();
    let mut suffix = 0u64;
    for &(_, rank) in pairs.iter().rev() {
        suffix += (k as u64).saturating_sub(u64::from(rank));
        if 2 * suffix >= need {
            break;
        }
        p -= 1;
    }
    let p = p.min(overlap_prefix_len(k, theta_raw));
    crate::invariants::check_prefix_len(p, k);
    p
}

/// Lower bound `L(p, k) = 2p²` on the Footrule distance of two rankings of
/// length `k` whose first `p` (top-ranked) items are disjoint, valid for
/// `p ≤ k/2` (Lemma 4.1's proof; see Figure 1 of the paper for a tight
/// example with `k = 5`, `p = 2`, `F = 8`).
#[inline]
pub fn lower_bound_disjoint_prefix(p: usize) -> u64 {
    2 * (p as u64) * (p as u64)
}

/// The **ordered** prefix length of Lemma 4.1: the best-ranked
/// `p_o = ⌊√(θ/2)⌋ + 1` items, valid only when `theta_raw < k²/2` (otherwise
/// `None`; the paper leaves larger thresholds as future work and recommends
/// the overlap prefix there).
pub fn ordered_prefix_len(k: usize, theta_raw: u64) -> Option<usize> {
    let k64 = k as u64;
    if 2 * theta_raw >= k64 * k64 {
        return None;
    }
    // Largest x with 2x² ≤ θ, then one more item to avoid missing pairs at
    // exactly the bound.
    let x: u64 = isqrt(theta_raw / 2);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "2θ < k² was checked above, so x = isqrt(θ/2) < k/2 and x + 1 ≤ k, a usize"
    )]
    let p = ((x + 1) as usize).min(k);
    crate::invariants::check_prefix_len(p, k);
    Some(p)
}

/// Position filter (\[19\]): a shared item whose ranks in the two rankings
/// differ by more than `theta_raw / 2` certifies `F > theta_raw`.
///
/// Returns `true` when the pair can be **pruned**. Implemented as
/// `2·|rank_a − rank_b| > theta_raw` to stay exact in integers.
#[inline]
pub fn position_filter_prunes(rank_a: usize, rank_b: usize, theta_raw: u64) -> bool {
    2 * (rank_a as u64).abs_diff(rank_b as u64) > theta_raw
}

/// Which prefix-derivation a join should use: the paper's two (§4) and the
/// weighted prefix, which the batch joins default to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixKind {
    /// Each record's own weighted prefix ([`weighted_prefix_len`]): the
    /// shortest prefix whose remaining rank weight cannot reach the
    /// threshold. Never longer than [`PrefixKind::Overlap`]'s, and like it
    /// requires a common canonical token order (frequency ordering).
    Weighted,
    /// The paper's count prefix `k − ω + 1` from the minimum-overlap bound;
    /// requires a common canonical token order (frequency ordering), which
    /// is what the paper's implementation uses since the reordering "leads
    /// to major performance gains".
    Overlap,
    /// Prefix of the best-ranked items (Lemma 4.1); slightly tighter for
    /// small `θ`, but incompatible with frequency reordering — the prefix is
    /// the *top* of the ranking in original order.
    Ordered,
}

impl PrefixKind {
    /// The prefix length for rankings of length `k` under raw threshold
    /// `theta_raw`, the same for every record. For [`PrefixKind::Weighted`]
    /// this is the cap of every record's own length — the count prefix;
    /// for [`PrefixKind::Ordered`] outside its validity range (`θ ≥ k²/2`)
    /// it falls back to the count prefix.
    pub fn prefix_len(self, k: usize, theta_raw: u64) -> usize {
        match self {
            PrefixKind::Weighted | PrefixKind::Overlap => overlap_prefix_len(k, theta_raw),
            PrefixKind::Ordered => {
                ordered_prefix_len(k, theta_raw).unwrap_or_else(|| overlap_prefix_len(k, theta_raw))
            }
        }
    }
}

/// Expected inverted-index posting-list length (Eq. 4 of the paper):
/// `E[len] = Σ_i n · f(i)²` where `f(i)` is the relative frequency of the
/// `i`-th prefix-eligible item and `n` the number of indexed rankings.
///
/// `rel_freqs` are the relative frequencies of the `v'` distinct items that
/// can appear in a prefix. Used as guidance for choosing the partitioning
/// threshold `δ` of CL-P (§6).
#[expect(
    clippy::cast_precision_loss,
    reason = "dataset sizes are far below 2^53 — exact in f64"
)]
pub fn expected_posting_list_len(n: usize, rel_freqs: &[f64]) -> f64 {
    rel_freqs.iter().map(|f| n as f64 * f * f).sum()
}

/// Convenience: all bounds for one `(k, θ_norm)` configuration, useful for
/// logging and for the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSummary {
    /// Ranking length.
    pub k: usize,
    /// Raw distance threshold.
    pub theta_raw: u64,
    /// Minimum required overlap ω.
    pub min_overlap: usize,
    /// Overlap-based prefix length.
    pub overlap_prefix: usize,
    /// Ordered prefix length (Lemma 4.1), when valid.
    pub ordered_prefix: Option<usize>,
    /// Maximum admissible rank difference of a shared item (position filter).
    pub max_rank_diff: u64,
}

impl BoundSummary {
    /// Computes every bound for a normalized threshold `theta`.
    pub fn new(k: usize, theta: f64) -> Self {
        let theta_raw = crate::distance::raw_threshold(k, theta);
        Self {
            k,
            theta_raw,
            min_overlap: min_overlap(k, theta_raw),
            overlap_prefix: overlap_prefix_len(k, theta_raw),
            ordered_prefix: ordered_prefix_len(k, theta_raw),
            max_rank_diff: theta_raw / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{footrule_raw, max_raw_distance, raw_threshold};
    use crate::ranking::Ranking;

    #[test]
    fn isqrt_is_exact() {
        for n in 0..2000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
        assert_eq!(isqrt(u64::MAX), u64::from(u32::MAX));
        let just_below_square = (1u64 << 32).wrapping_mul(1u64 << 32).wrapping_sub(1);
        assert_eq!(isqrt(just_below_square), (1u64 << 32) - 1);
    }

    #[test]
    fn min_overlap_edge_cases() {
        // θ = 0: identical rankings only → all k items shared.
        assert_eq!(min_overlap(10, 0), 10);
        // θ = max = k(k+1): disjoint rankings qualify → no overlap needed.
        assert_eq!(min_overlap(10, max_raw_distance(10)), 0);
        // One swap (distance 2) still requires all items shared: x(x+1) ≤ 2
        // gives x = 1 → ω = k − 1.
        assert_eq!(min_overlap(10, 2), 9);
    }

    #[test]
    fn overlap_prefix_edge_cases() {
        // θ = 0 → prefix of 1 (identical rankings share every token).
        assert_eq!(overlap_prefix_len(10, 0), 1);
        // θ = max → must index everything.
        assert_eq!(overlap_prefix_len(10, max_raw_distance(10)), 10);
    }

    #[test]
    fn overlap_prefix_for_paper_thresholds() {
        // k = 10, max = 110. Raw thresholds for θ ∈ {0.1, 0.2, 0.3, 0.4}.
        for (theta, expected_x) in [(0.1, 2), (0.2, 4), (0.3, 5), (0.4, 6)] {
            let raw = raw_threshold(10, theta);
            // x = largest integer with x(x+1) ≤ raw.
            let x = (0..=10).rev().find(|x| x * (x + 1) <= raw).unwrap();
            assert_eq!(x, expected_x, "θ = {theta}");
            assert_eq!(min_overlap(10, raw), 10 - expected_x as usize);
            assert_eq!(overlap_prefix_len(10, raw), expected_x as usize + 1);
        }
    }

    #[test]
    fn ordered_prefix_matches_lemma() {
        // Figure 1 / Lemma 4.1: k = 5, rankings with disjoint first-2 items
        // have F ≥ 8. Thus for θ < 8 a prefix of 2 suffices; our formula:
        // θ = 7 → x = isqrt(3) = 1 → p_o = 2.
        assert_eq!(ordered_prefix_len(5, 7), Some(2));
        // θ = 8 admits the Figure-1 pair itself → need p_o = 3.
        assert_eq!(ordered_prefix_len(5, 8), Some(3));
        // Validity boundary: θ ≥ k²/2 = 12.5 → raw 13 is out of range...
        // 2·13 = 26 > 25 → None.
        assert_eq!(ordered_prefix_len(5, 13), None);
        assert_eq!(ordered_prefix_len(5, 12), Some(3));
    }

    #[test]
    fn ordered_prefix_never_exceeds_k() {
        assert_eq!(ordered_prefix_len(3, 4), Some(2));
        assert_eq!(ordered_prefix_len(2, 1), Some(1));
    }

    #[test]
    fn lower_bound_matches_figure_one() {
        let a = Ranking::new(1, vec![1, 2, 3, 4, 5]).unwrap();
        let b = Ranking::new(2, vec![3, 4, 1, 2, 5]).unwrap();
        assert_eq!(footrule_raw(&a, &b), lower_bound_disjoint_prefix(2));
    }

    #[test]
    fn min_distance_given_overlap_is_tight() {
        // k = 5, o = 3: private items at the bottom two positions of each
        // ranking. Best case: shared items at identical ranks.
        let a = Ranking::new(1, vec![1, 2, 3, 10, 11]).unwrap();
        let b = Ranking::new(2, vec![1, 2, 3, 20, 21]).unwrap();
        assert_eq!(footrule_raw(&a, &b), min_distance_given_overlap(5, 3));
        // And no pair with overlap 3 can do better (checked by the generic
        // property test in tests/props.rs).
    }

    #[test]
    #[should_panic(expected = "overlap cannot exceed")]
    fn min_distance_rejects_bogus_overlap() {
        let _ = min_distance_given_overlap(3, 4);
    }

    #[test]
    fn position_filter_on_known_pair() {
        // a = [1,2,3,4,5], b = [5,2,3,4,1]: item 1 moves by 4 → F ≥ 8.
        let a = Ranking::new(1, vec![1, 2, 3, 4, 5]).unwrap();
        let b = Ranking::new(2, vec![5, 2, 3, 4, 1]).unwrap();
        let f = footrule_raw(&a, &b);
        assert_eq!(f, 8);
        // Prunable for every θ < 8, not prunable at θ = 8.
        assert!(position_filter_prunes(0, 4, 7));
        assert!(!position_filter_prunes(0, 4, 8));
    }

    #[test]
    fn prefix_kind_falls_back_when_ordered_invalid() {
        let theta_raw = 13; // ≥ k²/2 for k = 5
        assert_eq!(
            PrefixKind::Ordered.prefix_len(5, theta_raw),
            overlap_prefix_len(5, theta_raw)
        );
        assert_eq!(
            PrefixKind::Overlap.prefix_len(5, 7),
            overlap_prefix_len(5, 7)
        );
        assert_eq!(PrefixKind::Ordered.prefix_len(5, 7), 2);
        assert_eq!(
            PrefixKind::Weighted.prefix_len(5, 7),
            overlap_prefix_len(5, 7)
        );
    }

    #[test]
    fn weighted_prefix_on_known_rankings() {
        // k = 5, raw θ = 8: need = 30 − 8 = 22, and the count prefix is 3.
        let pairs = |ranks: [u16; 5]| ranks.map(|rank| (u32::from(rank), rank));
        // The rarest item ranked first, the rest lightest last: suffix
        // weights 1, 2, 3, 4 (2·10 < 22), then 5 stops it — a prefix of one.
        assert_eq!(weighted_prefix_len(&pairs([0, 1, 2, 3, 4]), 5, 8), 1);
        // Suffix weights 4, 3, 2 (2·9 < 22), then 5 stops it: two.
        assert_eq!(weighted_prefix_len(&pairs([4, 0, 3, 2, 1]), 5, 8), 2);
        // The top-ranked items last: 5, 4 (2·9 < 22), then 3 stops it — the
        // count prefix's worst case, length 3.
        assert_eq!(weighted_prefix_len(&pairs([4, 3, 2, 1, 0]), 5, 8), 3);
        // Disjoint pairs qualify at the maximum: the whole ranking.
        let max = max_raw_distance(5);
        assert_eq!(weighted_prefix_len(&pairs([0, 1, 2, 3, 4]), 5, max), 5);
        assert_eq!(weighted_prefix_len(&pairs([0, 1, 2, 3, 4]), 5, u64::MAX), 5);
        // θ = 0: only identical rankings — every suffix but the whole list
        // weighs less than 30/2.
        assert_eq!(weighted_prefix_len(&pairs([0, 1, 2, 3, 4]), 5, 0), 1);
    }

    #[test]
    fn expected_posting_list_len_uniform() {
        // Uniform frequencies 1/v over v items: E = n/v per list.
        let freqs = vec![0.25; 4];
        let e = expected_posting_list_len(100, &freqs);
        assert!((e - 25.0).abs() < 1e-9);
    }

    #[test]
    fn bound_summary_is_consistent() {
        let s = BoundSummary::new(10, 0.3);
        assert_eq!(s.theta_raw, raw_threshold(10, 0.3));
        assert_eq!(s.overlap_prefix, overlap_prefix_len(10, s.theta_raw));
        assert_eq!(s.min_overlap, min_overlap(10, s.theta_raw));
        assert_eq!(s.max_rank_diff, s.theta_raw / 2);
    }
}
