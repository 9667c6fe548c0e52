//! Order statistics over latency samples and run results.

use crate::num::fz;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * fz(sorted.len())).ceil();
    // cast(rank is a small non-negative integer-valued float, clamped into the slice below)
    let rank = (rank as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts ascending; samples are finite by construction.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest value: of repeated timings of the same work, the one the
/// host disturbed least. What the host takes from a run — a stolen core, a
/// slow wake-up — only ever adds time, so the minimum is the steady end of
/// the distribution and the median is not.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so `compare`
/// judges spread the way the acceptance procedure does. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = fz(i * (n + 1)) - fz(j * 4);
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `None` below two values
/// or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// What the open loop observed at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct RateObservation {
    /// Requests per second the schedule asked for.
    pub offered_per_s: f64,
    /// Requests per second completed.
    pub achieved_per_s: f64,
    /// Failed requests (non-2xx, connect error, malformed reply).
    pub failures: u64,
    /// p99 of the query latency from due time, µs.
    pub query_p99_us: f64,
    /// How late the last tenth of the schedule was sent, ms (a growing
    /// backlog shows here first).
    pub end_lateness_ms: f64,
}

/// The latency limit of a rate that "holds".
pub const QUERY_P99_LIMIT_US: f64 = 5_000.0;

/// Whether the system kept up with the offered rate: tail within the
/// limit, nothing failed, nothing shed, no growing backlog.
pub fn rate_holds(o: &RateObservation) -> bool {
    o.query_p99_us <= QUERY_P99_LIMIT_US
        && o.failures == 0
        && o.achieved_per_s >= 0.98 * o.offered_per_s
        && o.end_lateness_ms < 50.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn a_rate_holds_only_when_every_condition_does() {
        let good = RateObservation {
            offered_per_s: 1000.0,
            achieved_per_s: 995.0,
            failures: 0,
            query_p99_us: 1200.0,
            end_lateness_ms: 0.4,
        };
        assert!(rate_holds(&good));
        assert!(!rate_holds(&RateObservation {
            query_p99_us: 5_001.0,
            ..good
        }));
        assert!(!rate_holds(&RateObservation {
            failures: 1,
            ..good
        }));
        assert!(!rate_holds(&RateObservation {
            achieved_per_s: 979.0,
            ..good
        }));
        assert!(!rate_holds(&RateObservation {
            end_lateness_ms: 50.0,
            ..good
        }));
    }
}
