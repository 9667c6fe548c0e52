//! Runtime invariant checks for the distance and bound kernels.
//!
//! Every check is backed by `debug_assert!`: it vanishes from release builds
//! (the hot join paths pay nothing) but runs in every `cargo test`,
//! property test and figure smoke test, so a filter-soundness regression —
//! the one class of bug that silently *drops result pairs* — trips an
//! assertion long before it corrupts an experiment.
//!
//! The invariants mirror the paper's §3–§4 facts:
//!
//! * a raw Footrule distance between two top-k rankings of equal length `k`
//!   lies in `[0, k·(k+1)]` (the maximum is attained exactly by disjoint
//!   rankings); for mixed lengths `(k_a, k_b)` the coarse bound
//!   `(k_a + k_b) · max(k_a, k_b)` holds term-by-term,
//! * a normalized threshold or distance is a finite value in `[0, 1]`,
//! * every prefix length is in `[1, k]` — a prefix of 0 would break the
//!   prefix-intersection completeness guarantee, one above `k` is
//!   meaningless,
//! * an early-exit verification that reports success must report a distance
//!   within its own threshold.

/// The maximum raw Footrule distance between two top-k rankings of length
/// `k`: attained exactly when the rankings are disjoint, where every item
/// contributes `k − rank` in its own list, summing to `k(k+1)/2` per side.
///
/// Hosted here (rather than in [`crate::distance`], which re-exports it)
/// because the invariant checks below need it and `distance` already calls
/// into this module — keeping the intra-crate import graph acyclic.
#[inline]
pub fn max_raw_distance(k: usize) -> u64 {
    (k as u64) * (k as u64 + 1)
}

/// Checks a raw Footrule distance `d` computed between rankings of lengths
/// `ka` and `kb` against the attainable range (debug builds only).
#[inline]
pub fn check_raw_distance(d: u64, ka: usize, kb: usize) {
    if ka == kb {
        debug_assert!(
            d <= max_raw_distance(ka),
            "Footrule invariant violated: d = {d} > k(k+1) = {} for k = {ka}",
            max_raw_distance(ka)
        );
    } else {
        let bound = (ka as u64 + kb as u64) * (ka.max(kb) as u64);
        debug_assert!(
            d <= bound,
            "Footrule invariant violated: d = {d} > (ka+kb)·max = {bound} for ka = {ka}, kb = {kb}"
        );
    }
}

/// Checks that a normalized threshold/distance is finite and in `[0, 1]`
/// (debug builds only).
#[inline]
pub fn check_normalized(theta: f64) {
    debug_assert!(
        theta.is_finite() && (0.0..=1.0).contains(&theta),
        "normalization invariant violated: {theta} is not a finite value in [0, 1]"
    );
}

/// Checks that a prefix length sits in `[1, k]` (debug builds only).
/// Vacuously true for `k = 0` (empty datasets have no prefixes to emit).
#[inline]
pub fn check_prefix_len(p: usize, k: usize) {
    debug_assert!(
        k == 0 || (1..=k).contains(&p),
        "prefix invariant violated: p = {p} outside [1, k] for k = {k}"
    );
}

/// Checks that an early-exit verification that accepted a pair stayed within
/// its threshold (debug builds only).
#[inline]
pub fn check_within_threshold(d: u64, threshold_raw: u64) {
    debug_assert!(
        d <= threshold_raw,
        "verification invariant violated: accepted d = {d} > threshold {threshold_raw}"
    );
}

/// Checks that a pair slice handed to the merge verification kernel is
/// sorted by strictly ascending item id (debug builds only) — the contract
/// of the item-sorted shadow view behind
/// [`crate::distance::footrule_sorted_within`]. Duplicate items would make
/// the merge under-count missing-item penalties, which is exactly the
/// silent-result-loss class these checks exist for.
#[inline]
pub fn check_item_sorted(pairs: &[(u32, u16)]) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "merge invariant violated: pair slice is not strictly item-sorted"
    );
}

// The `*_trips` tests trip a `debug_assert!`, which release builds compile
// out: they exist in debug builds only.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass() {
        check_raw_distance(0, 5, 5);
        check_raw_distance(30, 5, 5);
        check_raw_distance(2, 3, 2);
        check_normalized(0.0);
        check_normalized(1.0);
        check_prefix_len(1, 10);
        check_prefix_len(10, 10);
        check_prefix_len(0, 0);
        check_within_threshold(6, 6);
        check_item_sorted(&[]);
        check_item_sorted(&[(3, 0)]);
        check_item_sorted(&[(1, 4), (2, 0), (9, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merge invariant")]
    fn unsorted_pairs_trip() {
        check_item_sorted(&[(2, 0), (1, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merge invariant")]
    fn duplicate_items_trip() {
        check_item_sorted(&[(1, 0), (1, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Footrule invariant")]
    fn distance_above_max_trips() {
        check_raw_distance(31, 5, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "normalization invariant")]
    fn threshold_above_one_trips() {
        check_normalized(1.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "prefix invariant")]
    fn zero_prefix_trips() {
        check_prefix_len(0, 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "verification invariant")]
    fn accepting_beyond_threshold_trips() {
        check_within_threshold(7, 6);
    }
}
