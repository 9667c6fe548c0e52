//! Top-k ranking data model and the mathematical toolkit of
//! *“Distributed Similarity Joins over Top-K Rankings”* (Milchevski & Michel,
//! EDBT 2020).
//!
//! A **top-k ranking** is a fixed-length list of `k` distinct items; the
//! left-most position is the top rank. Following Fagin et al. (and the paper,
//! §3) ranks run from `0` to `k − 1` and an item that is *not* contained in a
//! ranking is assigned the artificial rank `l = k`.
//!
//! The crate provides:
//!
//! * [`Ranking`] / [`OrderedRanking`] — the two ranking representations used
//!   by the join algorithms (original item order vs. canonical
//!   frequency-ordered form with preserved original ranks),
//! * [`distance`] — Spearman's Footrule adaptation for top-k lists (a
//!   metric), raw and normalized, with early-exit verification, plus
//!   Kendall's tau for completeness,
//! * [`bounds`] — every pruning bound of the paper: the overlap prefix, the
//!   ordered prefix of Lemma 4.1, the position filter, the
//!   minimum-distance-given-overlap bound and the posting-list length
//!   estimator (Eq. 4) — plus the weighted prefix, the rank-weighted
//!   refinement of the overlap prefix that the batch joins default to,
//! * [`ordered`] — global frequency ordering (the *Ordering* phase) and the
//!   per-ranking overlap signature,
//! * [`verify`] — the shared candidate-verification kernel: position
//!   filter, overlap-signature filter, early-exit distance,
//! * [`invariants`] — `debug_assert!`-backed runtime checks wired into the
//!   kernels above (free in release builds, exercised by every test run).
//!
//! # Example
//!
//! ```
//! use topk_rankings::{Ranking, distance};
//!
//! // Table 2 of the paper: two top-5 rankings.
//! let t1 = Ranking::new(1, vec![2, 5, 4, 3, 1]).unwrap();
//! let t2 = Ranking::new(2, vec![1, 4, 5, 9, 0]).unwrap();
//!
//! // With ranks 0..k-1 and the artificial rank l = k = 5 the paper's §1.1
//! // example evaluates to 16.
//! assert_eq!(distance::footrule_raw(&t1, &t2), 16);
//! assert_eq!(distance::max_raw_distance(5), 30);
//! ```

#![warn(missing_docs)]
// Unit tests are exempt from the cast and discarded-`Result` rules (for the
// unwrap/panic/indexing rules `clippy.toml` says the same).
#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod bounds;
pub mod distance;
pub mod invariants;
pub mod jaccard;
pub mod ordered;
pub mod ranking;
pub mod varlen;
pub mod verify;

pub use bounds::{
    min_distance_given_overlap, min_overlap, ordered_prefix_len, overlap_prefix_len,
    position_filter_prunes, weighted_prefix_len, BoundSummary, PrefixKind,
};
pub use distance::{
    footrule_norm, footrule_pairs, footrule_pairs_within, footrule_raw, footrule_sorted_within,
    footrule_within, max_raw_distance, raw_threshold,
};
pub use jaccard::{jaccard_distance, jaccard_min_overlap, jaccard_prefix_len, jaccard_within};
pub use ordered::{FrequencyTable, ItemBits, OrderedRanking};
pub use ranking::{rank_u64, ItemId, Ranking, RankingError, RankingId, Relation};
pub use verify::{verify_candidate, Verification};
