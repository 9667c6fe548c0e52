//! Property tests for the log-linear telemetry histogram: the bucket
//! scheme's ≤ 1/16 relative-width guarantee, quantile error bounds against
//! the exact nearest-rank answer, and merge behaving like pooled recording.

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
use topk_datagen::rng::{check, Rng};

/// Cases per property.
const CASES: u64 = 256;

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
fn value(rng: &mut Rng) -> u64 {
    match rng.gen_range(0u8..3) {
        0 => rng.gen_range(0u64..64),
        1 => rng.gen_range(1..=u64::MAX),
        _ => 1 << rng.gen_range(0u32..64),
    }
}

/// `min_len..max_len` values drawn by `draw`.
fn values(rng: &mut Rng, min_len: usize, max_len: usize, draw: fn(&mut Rng) -> u64) -> Vec<u64> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| draw(rng)).collect()
}

#[test]
fn every_value_lands_inside_its_bucket_bounds() {
    check("every_value_lands_inside_its_bucket_bounds", CASES, |rng| {
        let v = rng.next_u64();
        let idx = bucket_index(v);
        assert!(idx < NUM_BUCKETS);
        assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx));
        let rep = bucket_representative(idx);
        assert!(bucket_lower(idx) <= rep && rep <= bucket_upper(idx));
    });
}

#[test]
fn bucket_relative_width_is_at_most_one_sixteenth() {
    check(
        "bucket_relative_width_is_at_most_one_sixteenth",
        CASES,
        |rng| {
            let idx = bucket_index(rng.next_u64());
            let (lo, hi) = (bucket_lower(idx), bucket_upper(idx));
            if idx < EXACT_LIMIT {
                assert_eq!(lo, hi, "exact region buckets hold one value");
            } else {
                assert!(hi - lo <= lo / 16, "bucket {idx}: [{lo}, {hi}]");
            }
        },
    );
}

#[test]
fn quantiles_match_nearest_rank_within_the_bucket_bound() {
    check(
        "quantiles_match_nearest_rank_within_the_bucket_bound",
        CASES,
        |rng| {
            let mut values = values(rng, 1, 200, value);
            let q = rng.gen_f64();
            let data = histogram_of(&values);
            values.sort_unstable();
            let truth = exact_quantile(&values, q);
            let estimate = data.quantile(q).expect("non-empty histogram");
            // The walk lands in the bucket of the true rank-q element, so the
            // estimate shares its bucket — and hence its ≤ 1/16 width bound.
            assert_eq!(
                bucket_index(estimate),
                bucket_index(truth),
                "estimate {estimate} vs truth {truth}"
            );
            if truth < EXACT_LIMIT as u64 {
                assert_eq!(estimate, truth);
            } else {
                let error = estimate.abs_diff(truth) as f64;
                assert!(error <= truth as f64 / 16.0, "{estimate} vs {truth}");
            }
        },
    );
}

#[test]
fn merge_is_pooled_recording() {
    check("merge_is_pooled_recording", CASES, |rng| {
        let a = values(rng, 0, 120, value);
        let b = values(rng, 0, 120, value);
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let pooled: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged, histogram_of(&pooled));
    });
}

#[test]
fn merge_is_commutative() {
    check("merge_is_commutative", CASES, |rng| {
        let a = values(rng, 0, 120, value);
        let b = values(rng, 0, 120, value);
        let mut ab = histogram_of(&a);
        ab.merge(&histogram_of(&b));
        let mut ba = histogram_of(&b);
        ba.merge(&histogram_of(&a));
        assert_eq!(ab, ba);
    });
}
