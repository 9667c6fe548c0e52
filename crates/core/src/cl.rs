//! The CL and CL-P driver: Ordering → Clustering → Joining → Expansion
//! (Figure 2 of the paper), with CL-P adding Algorithm 3's repartitioning of
//! oversized posting lists in the joining phase. The clusters partition the
//! rankings, so the within-cluster and the expanded pairs are disjoint and
//! each is found once: unlike Figure 2, no phase deduplicates.
//!
//! There is one driver body, `cl_flavour`, generic over a `MetricSpace`:
//! everything §5 proves about CL uses the triangle inequality and nothing
//! else about the distance. The Footrule entry points below and the Jaccard
//! ones ([`crate::jaccard_join`]) only turn their configuration into a
//! `ClPlan` — the clustering space at θc, the centroid space with Lemma 5.3's
//! thresholds, and θ itself.

use std::sync::Arc;
use std::time::Instant;

use minispark::{Cluster, SkewBudget};
use topk_rankings::distance::raw_threshold;
use topk_rankings::{PrefixKind, Ranking};

use crate::centroid_join::centroid_space;
use crate::clustering::{clustering_in, clustering_space};
use crate::config::effective_partitions;
use crate::expansion::expansion_in;
use crate::kernels::MetricSpace;
use crate::pipeline::{order_rankings, prefix_join, rs_uniform_k, uniform_k, PrefixSource};
use crate::stats::JoinStats;
use crate::{JoinConfig, JoinError, JoinOutcome};

/// What one CL run joins with, in its space's own terms.
pub(crate) struct ClPlan<M: MetricSpace> {
    /// The space of the clustering self-join, built for θc.
    pub clustering: M,
    /// The space of the centroid join: θ + 2θc with Lemma 5.3's per-type
    /// relaxation, and the prefix lengths that go with it.
    pub centroids: M,
    /// Whether and where the centroid join splits hot groups: CL-P's
    /// `Fixed(δ)`, or the configured policy under CL.
    pub joining: SkewBudget,
    /// The join threshold θ.
    pub theta: M::Dist,
    /// Whether the triangle bounds decide pairs before verification.
    pub use_triangle_bounds: bool,
}

/// The one CL/CL-P driver body. `plan_for` builds the run's plan from the
/// uniform ranking length `k`; the caller has validated its configuration.
/// `partitions = 0` takes the cluster default; `skew` is the clustering
/// phase's policy, the plan carries the joining phase's.
pub(crate) fn cl_flavour<M: MetricSpace>(
    cluster: &Cluster,
    data: &[Ranking],
    prefix_kind: PrefixKind,
    partitions: usize,
    skew: SkewBudget,
    label: &str,
    plan_for: impl FnOnce(usize) -> ClPlan<M>,
) -> Result<JoinOutcome, JoinError> {
    let start = Instant::now();
    let Some(k) = uniform_k(data)? else {
        return Ok(JoinOutcome::empty(start.elapsed()));
    };
    let plan = plan_for(k);
    let partitions = effective_partitions(partitions, cluster.config().default_partitions);
    let stats = Arc::new(JoinStats::default());

    // Phase spans put Figure 2's Ordering → Clustering → Joining →
    // Expansion pipeline on the trace timeline (no-ops unless the cluster
    // records a trace).
    let run_span = cluster.trace().span(format!("{label}/run"));

    // Phase 1 — Ordering (done once; both sub-joins reuse it, §5).
    let ordered = {
        let _phase = cluster.trace().span(format!("{label}/phase/ordering"));
        order_rankings(cluster, data, prefix_kind, partitions, label)
    };

    // Phase 2 — Clustering at θc.
    let clustering = {
        let _phase = cluster.trace().span(format!("{label}/phase/clustering"));
        clustering_in(
            cluster,
            &ordered,
            &plan.clustering,
            plan.theta,
            plan.use_triangle_bounds,
            skew,
            partitions,
            &stats,
        )
    };

    // Phase 3 — Joining the centroids at θ + 2θc (Lemma 5.1 / 5.3): one
    // prefix join over the two type-tagged sources, split under the plan's
    // budget (CL-P's δ).
    let cjoin = {
        let _phase = cluster.trace().span(format!("{label}/phase/joining"));
        prefix_join(
            &PrefixSource::centroids(&clustering.centroids_m, &clustering.singletons),
            &plan.centroids,
            partitions,
            plan.joining,
            &stats,
            &format!("{}/join", M::CL_STAGES),
        )
    };

    // Phase 4 — Expansion back to ranking-level pairs, each found once.
    let mut pairs = {
        let _phase = cluster.trace().span(format!("{label}/phase/expansion"));
        expansion_in::<M>(
            &cjoin,
            &clustering.clusters,
            plan.theta,
            plan.use_triangle_bounds,
            &stats,
        )
        .union(&clustering.within_cluster_pairs)
        .collect()
    };
    pairs.sort_unstable();
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "{label}: a pair came out of more than one cluster or centroid pair"
    );
    drop(run_span);
    let stats = stats.snapshot();
    stats.publish(cluster.telemetry(), label);
    Ok(JoinOutcome {
        pairs,
        stats,
        elapsed: start.elapsed(),
    })
}

/// CL/CL-P under Footrule: the plan is the two phase modules' spaces, the
/// centroid join split under `joining`.
fn footrule_cl(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
    joining: SkewBudget,
    label: &str,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    cl_flavour(
        cluster,
        data,
        config.prefix,
        config.partitions,
        config.skew,
        label,
        |k| ClPlan {
            clustering: clustering_space(k, raw_threshold(k, config.cluster_threshold), config),
            centroids: centroid_space(k, config),
            joining,
            theta: raw_threshold(k, config.theta),
            use_triangle_bounds: config.use_triangle_bounds,
        },
    )
}

/// CL: the clustering-based similarity join (§5).
pub fn cl_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    footrule_cl(cluster, data, config, config.skew, "cl")
}

/// CL over two relations (R-S join).
///
/// CL's clustering is inherently a self-structure — a cluster may mix
/// records of both relations, and that is exactly what makes it effective —
/// so the R-S variant runs the full CL pipeline over the **disjoint union**
/// of the two relations (records re-keyed into one id space, left block
/// first) and keeps only the cross-relation pairs of the result. Output
/// pairs are `(left id, right id)`, sorted; stats, trace spans and the live
/// telemetry series thread through under the `cl-rs` label.
pub fn cl_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    let start = Instant::now();
    if rs_uniform_k(left, right)?.is_none() {
        return Ok(JoinOutcome::empty(start.elapsed()));
    }
    // Re-key into one disjoint internal id space: left records take ids
    // 0..|R| (their position), right records |R|..|R|+|S|. The internal
    // pair order (a < b) then guarantees a cross pair leads with the left
    // record, and mapping back to original ids is a slice lookup.
    let mut union = Vec::with_capacity(left.len() + right.len());
    let mut next: u64 = 0;
    for r in left {
        union.push(Ranking::new_unchecked(next, r.items().to_vec()));
        next += 1;
    }
    let boundary = next;
    for r in right {
        union.push(Ranking::new_unchecked(next, r.items().to_vec()));
        next += 1;
    }
    let inner = footrule_cl(cluster, &union, config, config.skew, "cl-rs")?;
    let mut pairs = Vec::new();
    for &(a, b) in &inner.pairs {
        // Internal pairs satisfy a < b, so a cross-relation pair always has
        // a in the left block and b in the right block.
        if a < boundary && b >= boundary {
            let left_idx = usize::try_from(a).expect("internal id a < |R| fits usize");
            let right_idx =
                usize::try_from(b - boundary).expect("internal id b − |R| < |S| fits usize");
            // left_idx < |R| and right_idx < |S| by construction of the internal id space.
            pairs.push((left[left_idx].id(), right[right_idx].id()));
        }
    }
    pairs.sort_unstable();
    Ok(JoinOutcome {
        pairs,
        stats: inner.stats,
        elapsed: start.elapsed(),
    })
}

/// CL-P: CL with repartitioning of posting lists longer than
/// `config.partition_threshold` in the joining phase (§6).
pub fn clp_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    let delta = SkewBudget::Fixed(config.partition_threshold);
    footrule_cl(cluster, data, config, delta, "cl-p")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_join;
    use minispark::ClusterConfig;
    use topk_datagen::CorpusProfile;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4))
    }

    fn corpus() -> Vec<Ranking> {
        // Enough near-duplicates for real clusters to form.
        CorpusProfile::orku_like(300, 10).generate()
    }

    #[test]
    fn cl_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        for theta in [0.1, 0.2, 0.3] {
            let expected = brute_force_join(&c, &data, theta).unwrap().pairs;
            let got = cl_join(&c, &data, &JoinConfig::new(theta)).unwrap().pairs;
            assert_eq!(got, expected, "θ = {theta}");
        }
    }

    #[test]
    fn clp_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        let expected = brute_force_join(&c, &data, 0.3).unwrap().pairs;
        let cfg = JoinConfig::new(0.3).with_partition_threshold(10);
        let got = clp_join(&c, &data, &cfg).unwrap().pairs;
        assert_eq!(got, expected);
    }

    #[test]
    fn cl_is_invariant_to_theta_c() {
        let c = cluster();
        let data = corpus();
        let expected = brute_force_join(&c, &data, 0.2).unwrap().pairs;
        for theta_c in [0.0, 0.01, 0.03, 0.05, 0.1, 0.2] {
            let cfg = JoinConfig::new(0.2).with_cluster_threshold(theta_c);
            let got = cl_join(&c, &data, &cfg).unwrap().pairs;
            assert_eq!(got, expected, "θc = {theta_c}");
        }
    }

    #[test]
    fn clustering_actually_forms_clusters() {
        let c = cluster();
        let data = corpus();
        let outcome = cl_join(&c, &data, &JoinConfig::new(0.2)).unwrap();
        assert!(outcome.stats.clusters > 0, "no clusters: {}", outcome.stats);
        assert!(outcome.stats.singletons > 0);
        assert!(
            outcome.stats.triangle_accepted + outcome.stats.triangle_pruned > 0,
            "triangle bounds never fired: {}",
            outcome.stats
        );
    }

    #[test]
    fn empty_dataset() {
        let c = cluster();
        assert!(cl_join(&c, &[], &JoinConfig::new(0.3))
            .unwrap()
            .pairs
            .is_empty());
        assert!(clp_join(&c, &[], &JoinConfig::new(0.3))
            .unwrap()
            .pairs
            .is_empty());
    }

    /// A chain `a < b < c` with d(a,b), d(b,c) ≤ θc < d(a,c) under both
    /// spaces — Footrule 2, 4, 6 and Jaccard 1/3, 1/3, 4/7 (each step
    /// replaces one item, one rank higher up) — so `b` is a member of `a`'s
    /// cluster and the pivot of `c`'s — plus a far ranking and, under the
    /// largest id, a swap of `c` that also lands in `b`'s cluster.
    fn chain() -> Vec<Ranking> {
        [
            (1, [1, 2, 3, 4, 5]),
            (2, [1, 2, 3, 4, 6]),
            (3, [1, 2, 3, 7, 6]),
            (4, [11, 12, 13, 14, 15]),
            (5, [1, 2, 3, 6, 7]),
        ]
        .into_iter()
        .map(|(id, items)| Ranking::new(id, items.to_vec()).unwrap())
        .collect()
    }

    #[test]
    fn a_chain_is_joined_exactly_on_each_side_of_its_ends() {
        let c = cluster();
        let data = chain();
        // Footrule: θc = raw 4 on k = 5; θ one raw unit below and at
        // d(a,c) = 6.
        for theta_raw in [5.0, 6.0] {
            let theta = theta_raw / 30.0;
            let config = JoinConfig::new(theta)
                .with_cluster_threshold(4.0 / 30.0)
                .with_partition_threshold(1);
            let expected = brute_force_join(&c, &data, theta).unwrap().pairs;
            let outcome = cl_join(&c, &data, &config).unwrap();
            assert_eq!(outcome.pairs, expected, "CL, θ_raw = {theta_raw}");
            assert_eq!(outcome.stats.clusters, 2, "{}", outcome.stats);
            let got = clp_join(&c, &data, &config).unwrap().pairs;
            assert_eq!(got, expected, "CL-P, θ_raw = {theta_raw}");
            let (left, right) = data.split_at(2);
            let expected = crate::baseline::brute_force_join_rs(&c, left, right, theta)
                .unwrap()
                .pairs;
            let got = cl_join_rs(&c, left, right, &config).unwrap().pairs;
            assert_eq!(got, expected, "CL R-S, θ_raw = {theta_raw}");
        }
        // Jaccard: θc just above 1/3; θ a hair on each side of d(a,c) = 4/7.
        for theta in [4.0 / 7.0 - 1e-9, 4.0 / 7.0 + 1e-9] {
            let config = crate::JaccardConfig::new(theta).with_cluster_threshold(0.34);
            let expected = crate::jaccard_brute_force(&c, &data, theta).unwrap().pairs;
            let outcome = crate::jaccard_cl_join(&c, &data, &config).unwrap();
            assert_eq!(outcome.pairs, expected, "Jaccard CL, θ = {theta}");
            assert_eq!(outcome.stats.clusters, 2, "{}", outcome.stats);
        }
    }

    #[test]
    fn theta_c_larger_than_theta_still_correct() {
        // Degenerate but legal configuration: cluster radius beyond the join
        // threshold forces member-pair verification inside clusters.
        let c = cluster();
        let data = corpus();
        let expected = brute_force_join(&c, &data, 0.1).unwrap().pairs;
        let cfg = JoinConfig::new(0.1).with_cluster_threshold(0.15);
        let got = cl_join(&c, &data, &cfg).unwrap().pairs;
        assert_eq!(got, expected);
    }
}
