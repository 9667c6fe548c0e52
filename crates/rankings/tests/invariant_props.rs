//! Property-based tests for the runtime invariant layer ([`topk_rankings::invariants`]).
//!
//! `cargo test` compiles with debug assertions on, so every call into the
//! distance kernels below also *arms* the `debug_assert!`-backed checks wired
//! into them — a property failure here is either a violated bound caught by
//! proptest or an invariant trip caught by the kernel itself. Both are bugs.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;
use topk_rankings::bounds::{ordered_prefix_len, overlap_prefix_len};
use topk_rankings::distance::{
    footrule_norm, footrule_raw, footrule_within, max_raw_distance, raw_threshold,
};
use topk_rankings::invariants;
use topk_rankings::Ranking;

/// Strategy: a top-k ranking with `k` distinct items from a small universe
/// (small universes maximize overlap — the regime where the artificial-rank
/// arithmetic actually differs from a plain permutation distance).
fn ranking_strategy(k: usize, universe: u32) -> impl Strategy<Value = Ranking> {
    proptest::sample::subsequence((0..universe).collect::<Vec<u32>>(), k)
        .prop_shuffle()
        .prop_map(move |items| Ranking::new_unchecked(0, items))
}

fn ranking_pair(k: usize, universe: u32) -> impl Strategy<Value = (Ranking, Ranking)> {
    (ranking_strategy(k, universe), ranking_strategy(k, universe))
}

proptest! {
    // ---- The headline bound: raw Footrule lives in [0, k(k+1)]. ----

    #[test]
    fn footrule_raw_is_within_zero_and_k_times_k_plus_one((a, b) in ranking_pair(7, 15)) {
        let d = footrule_raw(&a, &b);
        let k = 7u64;
        prop_assert!(d <= k * (k + 1), "d = {} exceeds k(k+1) = {}", d, k * (k + 1));
        // And the bound is exactly what max_raw_distance reports.
        prop_assert_eq!(max_raw_distance(7), k * (k + 1));
        // Explicitly re-run the invariant check on the kernel's output: it
        // must accept every value the kernel can produce.
        invariants::check_raw_distance(d, a.k(), b.k());
    }

    #[test]
    fn footrule_raw_is_symmetric((a, b) in ranking_pair(7, 15)) {
        prop_assert_eq!(footrule_raw(&a, &b), footrule_raw(&b, &a));
    }

    // Disjoint rankings sit exactly at the maximum — the bound is tight.
    #[test]
    fn disjoint_rankings_reach_the_maximum(k in 1usize..=8) {
        let a = Ranking::new_unchecked(1, (0..k as u32).collect());
        let b = Ranking::new_unchecked(2, (100..100 + k as u32).collect());
        prop_assert_eq!(footrule_raw(&a, &b), max_raw_distance(k));
    }

    // ---- Normalization stays in [0, 1] (checked again by the kernel). ----

    #[test]
    fn footrule_norm_is_normalized((a, b) in ranking_pair(6, 12)) {
        let n = footrule_norm(&a, &b);
        prop_assert!((0.0..=1.0).contains(&n), "norm = {}", n);
        invariants::check_normalized(n);
    }

    // ---- raw_threshold round-trips through the normalized check. ----

    #[test]
    fn raw_threshold_stays_within_the_raw_maximum(k in 1usize..=10, theta in 0.0f64..=1.0) {
        let raw = raw_threshold(k, theta);
        prop_assert!(raw <= max_raw_distance(k));
    }

    // ---- Early-exit verification returns only values within bounds. ----

    #[test]
    fn footrule_within_respects_both_bounds(
        (a, b) in ranking_pair(7, 15),
        threshold in 0u64..=60,
    ) {
        if let Some(d) = footrule_within(&a, &b, threshold) {
            prop_assert!(d <= threshold);
            invariants::check_raw_distance(d, a.k(), b.k());
            invariants::check_within_threshold(d, threshold);
        }
    }

    // ---- Prefix lengths stay in [1, k] for every admissible θ. ----

    #[test]
    fn prefix_lengths_stay_in_range(k in 1usize..=10, theta in 0.0f64..=1.0) {
        let theta_raw = raw_threshold(k, theta);
        let p = overlap_prefix_len(k, theta_raw);
        invariants::check_prefix_len(p, k);
        if let Some(po) = ordered_prefix_len(k, theta_raw) {
            invariants::check_prefix_len(po, k);
        }
    }
}
