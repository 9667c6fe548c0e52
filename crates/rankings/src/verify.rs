//! Shared candidate-verification kernels.
//!
//! Every join algorithm in the paper funnels candidate pairs through the same
//! two steps: the **position filter** on the shared (indexed) item, then the
//! early-exit Footrule computation. Keeping the kernel in one place
//! guarantees that VJ, VJ-NL, CL and CL-P verify identically.

#![warn(clippy::indexing_slicing)]

use crate::bounds::position_filter_prunes;
use crate::ordered::OrderedRanking;

/// Outcome of verifying one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The pair is a join result with the given raw distance.
    Within(u64),
    /// Pruned by the position filter on the shared item (no distance
    /// computation was performed).
    PositionPruned,
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
/// `> θ/2` certifies the pair is not a result) and only then computes the
/// distance with early exit.
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
    match a.footrule_within(b, theta_raw) {
        Some(d) => Verification::Within(d),
        None => Verification::DistanceExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordered::{FrequencyTable, OrderedRanking};
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
        let a = ordered(1, &[1, 2, 3]);
        let b = ordered(2, &[7, 8, 9]);
        let v = verify_candidate(&a, &b, None, 5, true);
        assert_eq!(v, Verification::DistanceExceeded);
        assert_eq!(v.distance(), None);
    }
}
