//! Runtime invariant checks for the join pipelines, complementing
//! [`topk_rankings::invariants`] one layer up: these guard the *dataflow*
//! facts (CL-P sub-partition sizes, centroid threshold ordering, result-pair
//! normalization) rather than the distance arithmetic.
//!
//! All checks are `debug_assert!`-backed: zero cost in release builds, armed
//! in every `cargo test` and figure smoke run.

/// Checks that a CL-P sub-partition respects the partitioning threshold δ:
/// Algorithm 3 splits an oversized posting list into chunks of **at most** δ
/// entries, and a chunk must be non-empty to be worth shipping (debug builds
/// only).
#[inline]
pub fn check_subpartition(len: usize, delta: usize) {
    debug_assert!(
        (1..=delta).contains(&len),
        "CL-P invariant violated: sub-partition of {len} entries outside [1, δ = {delta}]"
    );
}

/// Checks Lemma 5.1/5.3's threshold ordering for the centroid join:
/// `θ_ss ≤ θ_ms ≤ θ_o` must hold or the per-type relaxation would *tighten*
/// a threshold and drop true pairs (debug builds only).
#[inline]
pub fn check_centroid_thresholds(theta_ss: u64, theta_ms: u64, theta_o: u64) {
    debug_assert!(
        theta_ss <= theta_ms && theta_ms <= theta_o,
        "Lemma 5.3 invariant violated: need θ_ss ≤ θ_ms ≤ θ_o, got {theta_ss}, {theta_ms}, {theta_o}"
    );
}

/// Checks that a result pair is normalized under the `(relation, id)` order
/// the relation-tagged pipeline promises: strictly increasing record keys,
/// so a self-join pair is id-ordered and an R-S pair always leads with the
/// left relation — even when the two id spaces overlap (debug builds only).
#[inline]
pub fn check_tagged_pair_normalized(a: (u8, u64), b: (u8, u64)) {
    debug_assert!(
        a < b,
        "pair invariant violated: result pair {a:?}, {b:?} is not ordered by (relation, id)"
    );
}

// The `*_trips` tests trip a `debug_assert!`, which release builds compile
// out: they exist in debug builds only.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass() {
        check_subpartition(1, 1);
        check_subpartition(3, 5);
        check_centroid_thresholds(6, 9, 12);
        check_centroid_thresholds(6, 6, 6);
        check_tagged_pair_normalized((0, 1), (0, 2));
        // An R-S pair with overlapping (even equal) ids is normalized as
        // long as the left relation leads.
        check_tagged_pair_normalized((0, 4), (1, 4));
        check_tagged_pair_normalized((0, 9), (1, 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CL-P invariant")]
    fn oversized_subpartition_trips() {
        check_subpartition(6, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CL-P invariant")]
    fn empty_subpartition_trips() {
        check_subpartition(0, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Lemma 5.3 invariant")]
    fn inverted_thresholds_trip() {
        check_centroid_thresholds(9, 6, 12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pair invariant")]
    fn self_pair_trips() {
        check_tagged_pair_normalized((0, 4), (0, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pair invariant")]
    fn right_leading_tagged_pair_trips() {
        check_tagged_pair_normalized((1, 2), (0, 9));
    }
}
