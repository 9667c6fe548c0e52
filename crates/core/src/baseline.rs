//! Exact brute-force join — the ground truth every algorithm is tested
//! against.

use std::sync::Arc;
use std::time::Instant;

use minispark::Cluster;
use topk_rankings::distance::raw_threshold;
use topk_rankings::{footrule_within, Ranking};

use crate::kernels::ordered_pair;
use crate::stats::StatsSnapshot;
use crate::{JoinError, JoinOutcome};

/// The one brute-force dataflow, under every distance: broadcast the inner
/// relation, stripe the outer one over the cluster, keep the pairs `within`
/// accepts, sort. One relation is the self-join (each record scans the
/// records after it; pairs are `(smaller id, larger id)`), two are the R-S
/// join (every cross pair, `(left id, right id)`). Every caller has checked
/// that ids are unique within a relation, so each pair is compared once and
/// nothing is deduplicated. The one stage is `{label}/compare`.
///
/// It shares nothing with `pipeline.rs` on purpose: this is the oracle the
/// pipeline is tested against.
pub(crate) fn all_pairs(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    label: &str,
    within: impl Fn(&Ranking, &Ranking) -> bool + Sync,
) -> JoinOutcome {
    let start = Instant::now();
    debug_assert!(matches!(relations.len(), 1 | 2), "one relation or two");
    let (Some(&outer), Some(&inner)) = (relations.first(), relations.last()) else {
        return JoinOutcome::empty(start.elapsed());
    };
    let self_join = relations.len() == 1;

    let shared = cluster.broadcast(Arc::new(inner.to_vec()));
    let partitions = cluster.config().default_partitions;
    let stripes = cluster.parallelize((0..outer.len()).collect(), partitions);
    let pairs_ds = stripes.flat_map(&format!("{label}/compare"), move |&i| {
        let inner = shared.value();
        let a = &outer[i];
        let scanned = if self_join {
            &inner[i + 1..]
        } else {
            &inner[..]
        };
        scanned
            .iter()
            .filter(|b| within(a, b))
            .map(|b| {
                if self_join {
                    ordered_pair(a.id(), b.id())
                } else {
                    (a.id(), b.id())
                }
            })
            .collect::<Vec<_>>()
    });
    let mut pairs = pairs_ds.collect();
    pairs.sort_unstable();
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "{label}: a relation repeats an id"
    );
    JoinOutcome {
        pairs,
        stats: StatsSnapshot::default(),
        elapsed: start.elapsed(),
    }
}

/// Computes the exact join result by comparing every pair, parallelized over
/// the cluster (each task owns a stripe of records and scans the ones after
/// each).
///
/// Quadratic — only suitable for validation-scale datasets, which is its
/// purpose.
pub fn brute_force_join(
    cluster: &Cluster,
    data: &[Ranking],
    theta: f64,
) -> Result<JoinOutcome, JoinError> {
    if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
        return Err(JoinError::InvalidThreshold(theta));
    }
    let start = Instant::now();
    let Some(k) = crate::pipeline::uniform_k(data)? else {
        return Ok(JoinOutcome::empty(start.elapsed()));
    };
    let theta_raw = raw_threshold(k, theta);
    Ok(all_pairs(cluster, &[data], "brute-force", move |a, b| {
        footrule_within(a, b, theta_raw).is_some()
    }))
}

/// Computes the exact bipartite (R-S) join result by comparing every
/// cross-relation pair, parallelized over stripes of the left relation.
/// Output pairs are `(left id, right id)`, sorted — no `a < b` ordering is
/// implied because the two id spaces may overlap.
///
/// This is the ground truth the R-S drivers and the arrival-stream joiner
/// are tested against.
pub fn brute_force_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    theta: f64,
) -> Result<JoinOutcome, JoinError> {
    if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
        return Err(JoinError::InvalidThreshold(theta));
    }
    let start = Instant::now();
    let Some(k) = crate::pipeline::rs_uniform_k(left, right)? else {
        return Ok(JoinOutcome::empty(start.elapsed()));
    };
    let theta_raw = raw_threshold(k, theta);
    let within = move |a: &Ranking, b: &Ranking| footrule_within(a, b, theta_raw).is_some();
    Ok(all_pairs(cluster, &[left, right], "brute-force-rs", within))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::ClusterConfig;
    use topk_rankings::distance::footrule_raw;

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    #[test]
    fn finds_exactly_the_close_pairs() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![
            r(1, &[1, 2, 3, 4, 5]),
            r(2, &[2, 1, 3, 4, 5]),
            r(3, &[9, 8, 7, 6, 5]),
            r(4, &[1, 2, 3, 4, 5]),
        ];
        // θ = 0.1 → raw 3: pairs (1,2) d=2, (1,4) d=0, (2,4) d=2.
        assert_eq!(footrule_raw(&data[0], &data[1]), 2);
        let outcome = brute_force_join(&cluster, &data, 0.1).unwrap();
        assert_eq!(outcome.pairs, vec![(1, 2), (1, 4), (2, 4)]);
    }

    #[test]
    fn empty_dataset_yields_empty_result() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let outcome = brute_force_join(&cluster, &[], 0.3).unwrap();
        assert!(outcome.pairs.is_empty());
    }

    #[test]
    fn theta_zero_finds_only_duplicates() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![r(1, &[1, 2, 3]), r(2, &[1, 2, 3]), r(3, &[1, 3, 2])];
        let outcome = brute_force_join(&cluster, &data, 0.0).unwrap();
        assert_eq!(outcome.pairs, vec![(1, 2)]);
    }

    #[test]
    fn theta_one_joins_everything() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![r(1, &[1, 2]), r(2, &[3, 4]), r(3, &[5, 6])];
        let outcome = brute_force_join(&cluster, &data, 1.0).unwrap();
        assert_eq!(outcome.pairs.len(), 3);
    }

    #[test]
    fn rejects_invalid_threshold() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        assert!(brute_force_join(&cluster, &[], 1.5).is_err());
        assert!(brute_force_join(&cluster, &[], f64::NAN).is_err());
    }

    #[test]
    fn rejects_duplicate_ids() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![r(1, &[1, 2, 3]), r(1, &[4, 5, 6])];
        assert!(matches!(
            brute_force_join(&cluster, &data, 0.3),
            Err(JoinError::DuplicateRankingId(1))
        ));
    }

    #[test]
    fn rejects_mixed_lengths() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![r(1, &[1, 2, 3]), r(2, &[1, 2])];
        assert!(matches!(
            brute_force_join(&cluster, &data, 0.3),
            Err(JoinError::MixedRankingLengths { .. })
        ));
    }

    #[test]
    fn rs_reference_joins_across_relations_with_overlapping_ids() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        // Ids 1 and 2 exist in BOTH relations — legal for an R-S join.
        let left = vec![r(1, &[1, 2, 3, 4, 5]), r(2, &[9, 8, 7, 6, 5])];
        let right = vec![
            r(1, &[1, 2, 3, 4, 5]), // identical to left 1 → distance 0
            r(2, &[2, 1, 3, 4, 5]), // distance 2 from left 1
            r(7, &[9, 8, 7, 6, 5]), // identical to left 2
        ];
        let outcome = brute_force_join_rs(&cluster, &left, &right, 0.1).unwrap();
        assert_eq!(outcome.pairs, vec![(1, 1), (1, 2), (2, 7)]);
    }

    #[test]
    fn rs_reference_validates_each_relation_separately() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let dup = vec![r(1, &[1, 2, 3]), r(1, &[4, 5, 6])];
        let ok = vec![r(9, &[1, 2, 3])];
        assert!(matches!(
            brute_force_join_rs(&cluster, &dup, &ok, 0.3),
            Err(JoinError::DuplicateRankingId(1))
        ));
        let short = vec![r(5, &[1, 2])];
        assert!(matches!(
            brute_force_join_rs(&cluster, &ok, &short, 0.3),
            Err(JoinError::MixedRankingLengths { .. })
        ));
        // Either side empty → empty result, no error.
        assert!(brute_force_join_rs(&cluster, &ok, &[], 0.3)
            .unwrap()
            .pairs
            .is_empty());
    }
}
