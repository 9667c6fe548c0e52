//! Jaccard distance for fixed-size sets — the extension the paper names as
//! future work (§8: "we plan to extend our approach to sets where the
//! Jaccard distance is used as a distance measure").
//!
//! A top-k ranking, ignoring its rank order, is a k-item set; the Jaccard
//! distance `d_J(A, B) = 1 − |A ∩ B| / |A ∪ B|` is a metric (the
//! Steinhaus/Marczewski–Steinhaus theorem), so the whole CL machinery —
//! clustering, centroid joining at `θ + 2θc`, triangle-bounded expansion —
//! carries over. For two k-sets the distance is a function of the overlap
//! `o` alone:
//!
//! ```text
//! d_J = (2k − 2o) / (2k − o)
//! ```
//!
//! so verification reduces to counting shared items, and the prefix bound
//! has a closed form: `d_J ≤ θ  ⇔  o ≥ ⌈2k(1−θ) / (2−θ)⌉`.

#![warn(clippy::indexing_slicing)]

use crate::ranking::Ranking;

/// Jaccard distance between the item *sets* of two rankings.
pub fn jaccard_distance(a: &Ranking, b: &Ranking) -> f64 {
    #[expect(
        clippy::cast_precision_loss,
        reason = "o ≤ k ≤ MAX_K and k + k ≤ 2^17 — exact in f64"
    )]
    let o = a.overlap(b) as f64;
    #[expect(
        clippy::cast_precision_loss,
        reason = "o ≤ k ≤ MAX_K and k + k ≤ 2^17 — exact in f64"
    )]
    let union = (a.k() + b.k()) as f64 - o;
    if union == 0.0 {
        0.0
    } else {
        1.0 - o / union
    }
}

/// Exact threshold predicate: `d_J(a, b) ≤ theta`.
///
/// Evaluated without dividing: `(|A|+|B|−2o) ≤ θ·(|A|+|B|−o)`, so every
/// caller (brute force, VJ, CL) decides candidate pairs identically.
pub fn jaccard_within(a: &Ranking, b: &Ranking, theta: f64) -> Option<f64> {
    let o = a.overlap(b);
    let total = a.k() + b.k();
    #[expect(
        clippy::cast_precision_loss,
        reason = "total ≤ 2·MAX_K ≤ 2^17 — exact in f64"
    )]
    let num = (total - 2 * o) as f64; // |A∪B| − |A∩B| scaled: union − inter
    #[expect(
        clippy::cast_precision_loss,
        reason = "total ≤ 2·MAX_K ≤ 2^17 — exact in f64"
    )]
    let den = (total - o) as f64; // |A∪B|
    if num <= theta * den {
        Some(if den == 0.0 { 0.0 } else { num / den })
    } else {
        None
    }
}

/// The minimum overlap two `k`-sets must share to possibly be within
/// Jaccard distance `theta`: `⌈2k(1−θ) / (2−θ)⌉`.
pub fn jaccard_min_overlap(k: usize, theta: f64) -> usize {
    debug_assert!((0.0..=1.0).contains(&theta));
    if theta >= 1.0 {
        return 0;
    }
    #[expect(clippy::cast_precision_loss, reason = "k ≤ MAX_K — exact in f64")]
    let bound = 2.0 * k as f64 * (1.0 - theta) / (2.0 - theta);
    // Find the smallest integer o with (2k − 2o) ≤ θ (2k − o), starting from
    // the float estimate and correcting with the exact predicate — immune
    // to rounding at the boundary.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float estimate only — corrected by the exact predicate below; ceil is ≥ 0 and ≤ 2k"
    )]
    let mut o = bound.ceil() as usize;
    o = o.min(k);
    #[expect(
        clippy::cast_precision_loss,
        reason = "both operands ≤ 2k ≤ 2^17 — exact in f64"
    )]
    let qualifies = |o: usize| (2 * k - 2 * o.min(k)) as f64 <= theta * (2 * k - o.min(k)) as f64;
    while o > 0 && qualifies(o - 1) {
        o -= 1;
    }
    while o <= k && !qualifies(o) {
        o += 1;
    }
    o.min(k)
}

/// Prefix length for the Jaccard prefix filter over `k`-sets: `k − ω + 1`
/// (clamped to `[1, k]`); `k` when disjoint sets qualify (θ = 1).
pub fn jaccard_prefix_len(k: usize, theta: f64) -> usize {
    let omega = jaccard_min_overlap(k, theta);
    if omega == 0 {
        k
    } else {
        (k - omega + 1).min(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    #[test]
    fn identical_sets_have_distance_zero() {
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[5, 4, 3, 2, 1]); // same set, different order
        assert_eq!(jaccard_distance(&a, &b), 0.0);
        assert_eq!(jaccard_within(&a, &b, 0.0), Some(0.0));
    }

    #[test]
    fn disjoint_sets_have_distance_one() {
        let a = r(1, &[1, 2, 3]);
        let b = r(2, &[4, 5, 6]);
        assert_eq!(jaccard_distance(&a, &b), 1.0);
        assert!(jaccard_within(&a, &b, 0.99).is_none());
        assert!(jaccard_within(&a, &b, 1.0).is_some());
    }

    #[test]
    fn known_overlap_value() {
        // k = 5, o = 3: d = (10 − 6) / (10 − 3) = 4/7.
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[1, 2, 3, 8, 9]);
        let d = jaccard_distance(&a, &b);
        assert!((d - 4.0 / 7.0).abs() < 1e-12);
        assert!(jaccard_within(&a, &b, 4.0 / 7.0).is_some());
        assert!(jaccard_within(&a, &b, 4.0 / 7.0 - 1e-9).is_none());
    }

    #[test]
    fn min_overlap_boundaries() {
        // θ = 0: identical sets only.
        assert_eq!(jaccard_min_overlap(10, 0.0), 10);
        // θ = 1: disjoint sets qualify.
        assert_eq!(jaccard_min_overlap(10, 1.0), 0);
        // k = 5, o = 3 gives d = 4/7 ≈ 0.571: at θ = 0.571… o = 3 must
        // suffice, just below it must not.
        assert_eq!(jaccard_min_overlap(5, 4.0 / 7.0), 3);
        assert_eq!(jaccard_min_overlap(5, 4.0 / 7.0 - 1e-9), 4);
    }

    #[test]
    fn min_overlap_is_consistent_with_the_predicate() {
        for k in [1usize, 2, 5, 10, 25] {
            for theta in [0.0, 0.1, 0.25, 0.333, 0.5, 0.7, 0.9, 0.999, 1.0] {
                let omega = jaccard_min_overlap(k, theta);
                // o = ω qualifies (or ω = 0 and disjoint qualifies at θ=1)…
                let d_at = |o: usize| (2 * k - 2 * o) as f64 / (2 * k - o) as f64;
                if omega > 0 {
                    assert!(
                        d_at(omega) <= theta + 1e-12,
                        "k={k} θ={theta}: ω={omega} does not qualify"
                    );
                    // …and ω − 1 does not.
                    assert!(
                        d_at(omega - 1) > theta - 1e-12,
                        "k={k} θ={theta}: ω−1={} still qualifies",
                        omega - 1
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_len_boundaries() {
        assert_eq!(jaccard_prefix_len(10, 0.0), 1);
        assert_eq!(jaccard_prefix_len(10, 1.0), 10);
        // k = 5, θ = 0.5: ω = ⌈2·5·0.5 / 1.5⌉ = ⌈10/3⌉ = 4 → p = 2.
        assert_eq!(jaccard_min_overlap(5, 0.5), 4);
        assert_eq!(jaccard_prefix_len(5, 0.5), 2);
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[1, 2, 3, 8, 9]);
        let c = r(3, &[1, 2, 7, 8, 9]);
        let ab = jaccard_distance(&a, &b);
        let bc = jaccard_distance(&b, &c);
        let ac = jaccard_distance(&a, &c);
        assert!(ac <= ab + bc + 1e-12);
    }
}
