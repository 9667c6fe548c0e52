//! Bounds for **variable-length** rankings — footnote 1 of the paper: "For
//! handling variable-length rankings, only the length boundaries for the
//! Footrule distance, given a distance threshold, need to be computed."
//!
//! For two rankings of lengths `ka ≤ kb` sharing exactly `o` items, the
//! minimum Footrule distance is attained by putting the `o` shared items at
//! identical top ranks `0..o` (cost 0) and the private items at the
//! remaining ranks:
//!
//! * each private item of the shorter ranking at rank `r` costs `kb − r`
//!   (it is missing from the longer ranking, artificial rank `l = kb`), so
//!   the bottom ranks `o..ka` are forced and optimal,
//! * the private items of the longer ranking fill its remaining ranks
//!   `o..kb`, each costing `|r − ka|`.
//!
//! Specializing to `o = min(ka, kb)` gives the **length filter**: two
//! rankings whose lengths differ by `Δ` are at distance at least
//! `Δ(Δ−1)/2` no matter their content.

#![warn(clippy::indexing_slicing)]

/// Minimum raw Footrule distance between rankings of lengths `ka` and `kb`
/// sharing exactly `o` items.
///
/// # Panics
/// Panics if `o > min(ka, kb)`.
pub fn min_distance_given_overlap_var(ka: usize, kb: usize, o: usize) -> u64 {
    let (ka, kb) = if ka <= kb { (ka, kb) } else { (kb, ka) };
    assert!(o <= ka, "overlap cannot exceed the shorter length");
    let mut sum = 0u64;
    // Private items of the shorter ranking at its bottom ranks o..ka.
    for r in o..ka {
        sum += (kb - r) as u64;
    }
    // Private items of the longer ranking at its remaining ranks o..kb.
    for r in o..kb {
        sum += crate::ranking::rank_u64(r).abs_diff(ka as u64);
    }
    sum
}

/// The length filter: the minimum distance implied by the length gap alone
/// (`o = min(ka, kb)`), which simplifies to `Δ(Δ−1)/2` with `Δ = |ka − kb|`.
pub fn min_distance_given_lengths(ka: usize, kb: usize) -> u64 {
    let delta = ka.abs_diff(kb) as u64;
    delta * (delta.saturating_sub(1)) / 2
}

/// The minimum overlap two rankings of lengths `ka`, `kb` must share to
/// possibly be within raw distance `theta_raw`: the smallest `o` with
/// [`min_distance_given_overlap_var`]`(ka, kb, o) ≤ theta_raw`, or `None`
/// if even full overlap exceeds the threshold... full overlap is the
/// maximum `o = min(ka, kb)`, whose distance is the length-gap bound; if
/// that exceeds `theta_raw` no pair of these lengths can qualify.
pub fn min_overlap_var(ka: usize, kb: usize, theta_raw: u64) -> Option<usize> {
    let max_o = ka.min(kb);
    if min_distance_given_overlap_var(ka, kb, max_o) > theta_raw {
        return None;
    }
    // min_distance is non-increasing in o; binary search the boundary.
    let mut lo = 0usize; // candidate answers in (lo, hi]; lo may be invalid
    let mut hi = max_o;
    if min_distance_given_overlap_var(ka, kb, 0) <= theta_raw {
        return Some(0);
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if min_distance_given_overlap_var(ka, kb, mid) <= theta_raw {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The prefix length a ranking of length `k` must index so that no pair
/// with any partner length in `partner_lengths` is missed at `theta_raw`.
///
/// For a pair `(ka, kb)` sharing `ω(ka, kb)` items, prefix-filter
/// completeness requires each side's prefix to be at least
/// `k_side − ω + 1` long; taking the minimum required ω over all partner
/// lengths makes one prefix per ranking length sufficient for the whole
/// dataset. Lengths whose pairs cannot qualify at all are skipped; if no
/// partner length can qualify the ranking still indexes one token (itself
/// harmless).
pub fn prefix_len_var(k: usize, partner_lengths: &[usize], theta_raw: u64) -> usize {
    let mut prefix = 1usize;
    for &kb in partner_lengths {
        match min_overlap_var(k, kb, theta_raw) {
            Some(0) => return k, // disjoint pairs qualify: index everything
            Some(omega) => prefix = prefix.max(k - omega.min(k) + 1),
            None => {}
        }
    }
    prefix.min(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::footrule_raw;
    use crate::Ranking;

    #[test]
    fn equal_lengths_match_the_fixed_k_bound() {
        for k in [1usize, 3, 5, 10] {
            for o in 0..=k {
                assert_eq!(
                    min_distance_given_overlap_var(k, k, o),
                    crate::bounds::min_distance_given_overlap(k, o),
                    "k = {k}, o = {o}"
                );
            }
        }
    }

    #[test]
    fn bound_is_symmetric_in_lengths() {
        for (ka, kb) in [(3, 7), (5, 5), (1, 10), (4, 6)] {
            for o in 0..=ka.min(kb) {
                assert_eq!(
                    min_distance_given_overlap_var(ka, kb, o),
                    min_distance_given_overlap_var(kb, ka, o)
                );
            }
        }
    }

    #[test]
    fn length_gap_bound_examples() {
        // Same length: 0. Gap 1: 0 (b's extra item can sit at rank ka,
        // costing 0). Gap 2: 1. Gap 3: 3.
        assert_eq!(min_distance_given_lengths(5, 5), 0);
        assert_eq!(min_distance_given_lengths(5, 6), 0);
        assert_eq!(min_distance_given_lengths(5, 7), 1);
        assert_eq!(min_distance_given_lengths(5, 8), 3);
        assert_eq!(
            min_distance_given_lengths(5, 8),
            min_distance_given_overlap_var(5, 8, 5)
        );
    }

    #[test]
    fn bound_is_achievable() {
        // ka = 3 ⊂ kb = 5 with matching top ranks attains the o = 3 bound.
        let a = Ranking::new(1, vec![1, 2, 3]).unwrap();
        let b = Ranking::new(2, vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(
            footrule_raw(&a, &b),
            min_distance_given_overlap_var(3, 5, 3)
        );
        // Disjoint rankings attain the o = 0 bound.
        let c = Ranking::new(3, vec![7, 8, 9]).unwrap();
        let d = Ranking::new(4, vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(
            footrule_raw(&c, &d),
            min_distance_given_overlap_var(3, 5, 0)
        );
    }

    #[test]
    fn bound_is_sound_exhaustively() {
        // For every pair of small rankings over a small universe, the true
        // distance is at least the bound for the observed overlap.
        let universe: Vec<u32> = (0..6).collect();
        let mut rankings = Vec::new();
        let mut id = 0u64;
        // All permutations of all subsets of sizes 2 and 3.
        for a in 0..universe.len() {
            for b in 0..universe.len() {
                if a == b {
                    continue;
                }
                rankings.push(Ranking::new(id, vec![universe[a], universe[b]]).unwrap());
                id += 1;
                for c in 0..universe.len() {
                    if c == a || c == b {
                        continue;
                    }
                    rankings.push(
                        Ranking::new(id, vec![universe[a], universe[b], universe[c]]).unwrap(),
                    );
                    id += 1;
                }
            }
        }
        for x in rankings.iter().step_by(3) {
            for y in rankings.iter().step_by(7) {
                let o = x.overlap(y);
                let d = footrule_raw(x, y);
                let bound = min_distance_given_overlap_var(x.k(), y.k(), o);
                assert!(d >= bound, "{x} vs {y}: d = {d} < bound {bound} (o = {o})");
            }
        }
    }

    #[test]
    fn min_overlap_var_boundary() {
        // k = 5 vs 5, θ = 0: full overlap required.
        assert_eq!(min_overlap_var(5, 5, 0), Some(5));
        // θ = max: no overlap required.
        assert_eq!(min_overlap_var(5, 5, 30), Some(0));
        // Lengths 3 vs 8: even identical-domain pairs cost ≥ 10? Gap bound:
        // Δ = 5 → 10. θ = 9 ⇒ impossible.
        assert_eq!(min_distance_given_lengths(3, 8), 10);
        assert_eq!(min_overlap_var(3, 8, 9), None);
        assert_eq!(min_overlap_var(3, 8, 10), Some(3));
    }

    #[test]
    fn min_overlap_var_is_the_exact_boundary() {
        for (ka, kb) in [(3usize, 3usize), (3, 5), (5, 9), (10, 10)] {
            for theta_raw in 0..=((ka + kb) * (ka + kb)) as u64 {
                if let Some(omega) = min_overlap_var(ka, kb, theta_raw) {
                    assert!(
                        min_distance_given_overlap_var(ka, kb, omega) <= theta_raw,
                        "ka={ka} kb={kb} θ={theta_raw}: ω={omega} fails"
                    );
                    if omega > 0 {
                        assert!(
                            min_distance_given_overlap_var(ka, kb, omega - 1) > theta_raw,
                            "ka={ka} kb={kb} θ={theta_raw}: ω−1 already qualifies"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_len_var_covers_partner_lengths() {
        // Fixed-length case reduces to the classic formula.
        for theta_raw in [0u64, 5, 11, 22, 44] {
            assert_eq!(
                prefix_len_var(10, &[10], theta_raw),
                crate::bounds::overlap_prefix_len(10, theta_raw)
            );
        }
        // A longer partner loosens the requirement; the prefix covers the
        // loosest (minimum-ω) pairing.
        let p_multi = prefix_len_var(5, &[5, 8, 10], 12);
        let p_single: usize = [5usize, 8, 10]
            .iter()
            .filter_map(|&kb| min_overlap_var(5, kb, 12).map(|w| 5 - w.min(5) + 1))
            .max()
            .unwrap();
        assert_eq!(p_multi, p_single);
        // Unreachable partner lengths are ignored.
        assert_eq!(prefix_len_var(3, &[30], 5), 1);
    }
}
