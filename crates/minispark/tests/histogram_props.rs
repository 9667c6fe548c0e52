//! Property tests for the log-linear telemetry histogram: the bucket
//! scheme's ≤ 1/16 relative-width guarantee, quantile error bounds against
//! the exact nearest-rank answer, merge behaving like pooled recording,
//! and lossless JSON round-trips of [`HistogramData`].

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use minispark::telemetry::{
    bucket_index, bucket_lower, bucket_representative, bucket_upper, HistogramData,
    TelemetryRegistry, EXACT_LIMIT, NUM_BUCKETS,
};
use minispark::Json;
use proptest::prelude::*;

/// Records every value into a fresh live histogram and snapshots it.
fn histogram_of(values: &[u64]) -> HistogramData {
    let h = TelemetryRegistry::enabled().histogram("h");
    for &v in values {
        h.record(v);
    }
    h.data()
}

/// The exact nearest-rank quantile over the raw values.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let count = sorted.len() as u64;
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    sorted[usize::try_from(rank - 1).expect("rank fits usize")]
}

/// Mixes small exact-region values with large log-linear-region ones so
/// both halves of the bucket scheme are exercised.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        1u64..=u64::MAX,
        (0u32..64).prop_map(|shift| 1u64 << shift),
    ]
}

/// Values bounded so that pooled sums stay inside f64's exact-integer range
/// (< 2^53): the JSON encoding carries numbers as f64, so only such sums
/// round-trip bit-exactly. Real telemetry sums (nanoseconds, bytes per run)
/// live far below this bound.
fn bounded_value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        1u64..(1 << 40),
        (0u32..40).prop_map(|shift| 1u64 << shift),
    ]
}

proptest! {
    #[test]
    fn every_value_lands_inside_its_bucket_bounds(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        prop_assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx));
        let rep = bucket_representative(idx);
        prop_assert!(bucket_lower(idx) <= rep && rep <= bucket_upper(idx));
    }

    #[test]
    fn bucket_relative_width_is_at_most_one_sixteenth(v in any::<u64>()) {
        let idx = bucket_index(v);
        let (lo, hi) = (bucket_lower(idx), bucket_upper(idx));
        if idx < EXACT_LIMIT {
            prop_assert_eq!(lo, hi, "exact region buckets hold one value");
        } else {
            prop_assert!(hi - lo <= lo / 16, "bucket {idx}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_match_nearest_rank_within_the_bucket_bound(
        mut values in proptest::collection::vec(value_strategy(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let data = histogram_of(&values);
        values.sort_unstable();
        let truth = exact_quantile(&values, q);
        let estimate = data.quantile(q).expect("non-empty histogram");
        // The walk lands in the bucket of the true rank-q element, so the
        // estimate shares its bucket — and hence its ≤ 1/16 width bound.
        prop_assert_eq!(
            bucket_index(estimate),
            bucket_index(truth),
            "estimate {estimate} vs truth {truth}"
        );
        if truth < EXACT_LIMIT as u64 {
            prop_assert_eq!(estimate, truth);
        } else {
            let error = estimate.abs_diff(truth) as f64;
            prop_assert!(error <= truth as f64 / 16.0, "{estimate} vs {truth}");
        }
    }

    #[test]
    fn merge_is_pooled_recording(
        a in proptest::collection::vec(value_strategy(), 0..120),
        b in proptest::collection::vec(value_strategy(), 0..120),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let pooled: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, histogram_of(&pooled));
    }

    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(value_strategy(), 0..120),
        b in proptest::collection::vec(value_strategy(), 0..120),
    ) {
        let mut ab = histogram_of(&a);
        ab.merge(&histogram_of(&b));
        let mut ba = histogram_of(&b);
        ba.merge(&histogram_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn json_round_trips_losslessly(
        values in proptest::collection::vec(bounded_value_strategy(), 0..200),
    ) {
        let data = histogram_of(&values);
        let text = data.to_json().render();
        let doc = Json::parse(&text).expect("emitted JSON parses");
        let back = HistogramData::from_json(&doc).expect("shape is valid");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn from_json_rejects_out_of_range_bucket_indices(
        idx in NUM_BUCKETS as u64..,
        n in 1u64..1000,
    ) {
        let doc = Json::obj()
            .with("count", Json::num_u64(n))
            .with("sum", Json::num_u64(0))
            .with(
                "buckets",
                Json::Arr(vec![Json::Arr(vec![Json::num_u64(idx), Json::num_u64(n)])]),
            );
        prop_assert!(HistogramData::from_json(&doc).is_none());
    }
}
