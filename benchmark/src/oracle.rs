//! The output oracle: exhaustive scans with the harness's own distance, so
//! a defect shared by the join kernels cannot hide in the check.

use std::collections::HashMap;

use crate::layers::{Pairs, Ranking};
use crate::num::{fz, n64};

/// Outcome counters: every check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks and operations attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// What failed, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        crate::num::ratio(crate::num::f(self.failed), crate::num::f(self.attempted))
    }
}

/// Raw threshold for normalized θ at length `k`: ⌊θ·k(k+1)⌋, snapping
/// products that are an integer up to float error (θ = 0.3, k = 10 → 33).
pub fn raw_threshold(k: usize, theta: f64) -> u64 {
    let scaled = theta * fz(k * (k + 1));
    let nearest = scaled.round();
    let snapped = if (scaled - nearest).abs() < 1e-9 {
        nearest
    } else {
        scaled.floor()
    };
    // cast(a non-negative integer-valued float no larger than k(k+1))
    snapped as u64
}

/// Raw Footrule distance between equal-length top-k lists, missing items
/// at rank `k`; `None` as soon as it exceeds `limit`.
pub fn footrule_within(a: &[u32], b: &[u32], limit: u64) -> Option<u64> {
    let k = a.len();
    let mut total = 0u64;
    for (rank_a, item) in a.iter().enumerate() {
        let rank_b = b.iter().position(|other| other == item).unwrap_or(k);
        total += n64(rank_a.abs_diff(rank_b));
        if total > limit {
            return None;
        }
    }
    for (rank_b, item) in b.iter().enumerate() {
        if !a.contains(item) {
            total += n64(k - rank_b);
        }
    }
    (total <= limit).then_some(total)
}

/// Whether `pairs` is strictly ascending (sorted and duplicate-free).
pub fn strictly_sorted(pairs: &Pairs) -> bool {
    pairs.windows(2).all(|w| w[0] < w[1])
}

/// Self-join check: for each id in `sample`, the partners the join reports
/// must equal a full scan of `data` (no false negatives or positives).
/// Returns the number of sampled ids that disagree.
pub fn self_join_mismatches(
    data: &[Ranking],
    pairs: &Pairs,
    sample: &[u64],
    theta_raw: u64,
) -> u64 {
    let mut partners: HashMap<u64, Vec<u64>> = sample.iter().map(|&id| (id, Vec::new())).collect();
    for &(a, b) in pairs {
        if let Some(list) = partners.get_mut(&a) {
            list.push(b);
        }
        if let Some(list) = partners.get_mut(&b) {
            list.push(a);
        }
    }
    let by_id: HashMap<u64, &Ranking> = data.iter().map(|r| (r.id(), r)).collect();
    let mut bad = 0;
    for (id, mut got) in partners {
        let Some(probe) = by_id.get(&id) else {
            bad += 1;
            continue;
        };
        let mut expected: Vec<u64> = data
            .iter()
            .filter(|other| {
                other.id() != id
                    && footrule_within(probe.items(), other.items(), theta_raw).is_some()
            })
            .map(Ranking::id)
            .collect();
        expected.sort_unstable();
        got.sort_unstable();
        if expected != got {
            bad += 1;
        }
    }
    bad
}

/// All stored rankings within `theta_raw` of `query`, as the index returns
/// them: `(id, raw distance)` sorted by distance then id.
pub fn scan<'a>(
    stored: impl Iterator<Item = (u64, &'a [u32])>,
    query: &[u32],
    theta_raw: u64,
) -> Vec<(u64, u64)> {
    let mut hits: Vec<(u64, u64)> = stored
        .filter_map(|(id, items)| footrule_within(query, items, theta_raw).map(|d| (id, d)))
        .collect();
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::ranking;

    #[test]
    fn footrule_matches_the_paper_example() {
        // §1.1 / Table 2: two top-5 rankings at raw distance 16.
        let a = [2, 5, 4, 3, 1];
        let b = [1, 4, 5, 9, 0];
        assert_eq!(footrule_within(&a, &b, 30), Some(16));
        assert_eq!(footrule_within(&a, &b, 16), Some(16));
        assert_eq!(footrule_within(&a, &b, 15), None);
        assert_eq!(footrule_within(&a, &a, 0), Some(0));
        // Disjoint lists sit at the maximum k(k+1).
        assert_eq!(footrule_within(&[1, 2], &[3, 4], 6), Some(6));
    }

    #[test]
    fn raw_threshold_snaps_float_error() {
        assert_eq!(raw_threshold(10, 0.3), 33);
        assert_eq!(raw_threshold(10, 0.1), 11);
        assert_eq!(raw_threshold(10, 0.25), 27);
        assert_eq!(raw_threshold(10, 0.4), 44);
    }

    #[test]
    fn the_self_join_check_sees_missing_and_spurious_pairs() {
        let data = vec![
            ranking(0, vec![1, 2, 3]),
            ranking(1, vec![2, 1, 3]),
            ranking(2, vec![7, 8, 9]),
        ];
        let truth: Pairs = vec![(0, 1)];
        assert_eq!(self_join_mismatches(&data, &truth, &[0, 1, 2], 2), 0);
        assert!(self_join_mismatches(&data, &Vec::new(), &[0], 2) > 0);
        assert!(self_join_mismatches(&data, &vec![(0, 1), (0, 2)], &[2], 2) > 0);
        assert!(self_join_mismatches(&data, &vec![(0, 1), (0, 99)], &[0], 2) > 0);
        assert!(strictly_sorted(&truth));
        assert!(!strictly_sorted(&vec![(0, 1), (0, 1)]));
    }

    #[test]
    fn scan_orders_by_distance_then_id() {
        let stored: Vec<(u64, Vec<u32>)> =
            vec![(5, vec![1, 2, 3]), (3, vec![2, 1, 3]), (4, vec![1, 2, 3])];
        let hits = scan(
            stored.iter().map(|(id, v)| (*id, v.as_slice())),
            &[1, 2, 3],
            2,
        );
        assert_eq!(hits, vec![(4, 0), (5, 0), (3, 2)]);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || "fine".into());
        checks.check(false, || "broken".into());
        checks.add(8, 1, "requests");
        assert_eq!((checks.attempted, checks.failed), (10, 2));
        assert_eq!(checks.messages.len(), 2);
        assert!((checks.error_rate() - 0.2).abs() < 1e-12);
    }
}
