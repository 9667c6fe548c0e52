//! The *Clustering* phase of CL/CL-P (§5.1).
//!
//! A similarity self-join at the (tiny) clustering threshold θc finds all
//! near-duplicate pairs; clusters are then formed by grouping the result
//! pairs by their first (smaller-id) ranking, which becomes the centroid.
//! Rankings that appear in no pair form singleton clusters. Because the
//! distance is a metric, every pair of rankings inside one cluster is within
//! `2·θc` of each other, so cluster-internal result pairs can be emitted
//! immediately (verified only when the triangle bounds cannot certify them).
//!
//! The phase is written once over a `MetricSpace`; [`clustering_phase`] is
//! its Footrule instantiation.

use std::collections::HashSet;
use std::sync::Arc;

use minispark::{Cluster, Dataset, SkewBudget};
use topk_rankings::OrderedRanking;

use crate::kernels::{ordered_pair, Footrule, MetricSpace};
use crate::pipeline::{prefix_join, PrefixSource};
use crate::stats::{JoinStats, KernelCounts};
use crate::JoinConfig;

/// `centroid id → [(member ranking, distance to centroid)]`, distances in
/// the join's space (raw Footrule by default).
pub type ClusterTable<D = u64> = Dataset<(u64, Vec<(Arc<OrderedRanking>, D)>)>;

/// Output of the clustering phase.
pub struct Clustering<D = u64> {
    /// The cluster table for clusters with at least one member. Clusters may
    /// overlap (a ranking can be a member of several clusters and a centroid
    /// itself), as §5.1 accepts.
    pub clusters: ClusterTable<D>,
    /// The non-singleton centroids `C_m` (one ranking per cluster).
    pub centroids_m: Dataset<Arc<OrderedRanking>>,
    /// The singleton centroids `C_s`: rankings with no neighbour within θc.
    pub singletons: Dataset<Arc<OrderedRanking>>,
    /// Result pairs already certain from the clustering phase (centroid ↔
    /// member and member ↔ member inside one cluster).
    pub within_cluster_pairs: Dataset<(u64, u64)>,
}

/// The Footrule space of the θc self-join. The paper uses VJ here ("our
/// experiments revealed that VJ is the most efficient one to be used here")
/// with the iterator-style per-group processing of §4.1.
pub(crate) fn clustering_space(k: usize, theta_c_raw: u64, config: &JoinConfig) -> Footrule {
    Footrule::uniform(k, theta_c_raw, config.prefix, config.use_position_filter)
}

/// Runs the clustering phase over the canonicalized dataset.
#[allow(clippy::too_many_arguments)]
pub fn clustering_phase(
    cluster: &Cluster,
    ordered: &Dataset<Arc<OrderedRanking>>,
    k: usize,
    theta_raw: u64,
    theta_c_raw: u64,
    config: &JoinConfig,
    partitions: usize,
    stats: &Arc<JoinStats>,
) -> Clustering {
    clustering_in(
        cluster,
        ordered,
        &clustering_space(k, theta_c_raw, config),
        theta_raw,
        config.use_triangle_bounds,
        config.skew,
        partitions,
        stats,
    )
}

/// The clustering phase in any metric space: the self-join in `space` (built
/// for θc) forms the clusters, and the cluster-internal pairs are decided
/// against the join threshold `theta`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn clustering_in<M: MetricSpace>(
    cluster: &Cluster,
    ordered: &Dataset<Arc<OrderedRanking>>,
    space: &M,
    theta: M::Dist,
    use_triangle_bounds: bool,
    skew: SkewBudget,
    partitions: usize,
    stats: &Arc<JoinStats>,
) -> Clustering<M::Dist> {
    let stage = |name: &str| format!("{}/cluster/{name}", M::CL_STAGES);
    let rc = prefix_join(
        &[PrefixSource::plain(ordered)],
        space,
        partitions,
        skew,
        stats,
        &format!("{}/cluster", M::CL_STAGES),
    );

    // Clusters: group pairs by the smaller-id ranking (PairHit guarantees
    // a.id < b.id), matching "from the pairs, we take the first ranking …
    // as the cluster centroid, and the second one as their member".
    let clusters = rc
        .map(&stage("member-assignments"), |hit| {
            (hit.a.id(), (Arc::clone(&hit.b), hit.distance))
        })
        .group_by_key(&stage("form-clusters"), partitions);

    // C_m: one ranking per centroid id. Keep-first is value-deterministic:
    // every value under one centroid id is an `Arc` of the same canonical
    // ranking, so the survivor is content-equal whichever duplicate wins.
    let centroids_m = rc
        .map(&stage("centroid-candidates"), |hit| {
            (hit.a.id(), Arc::clone(&hit.a))
        })
        .reduce_by_key(&stage("dedup-centroids"), partitions, |a, _| a)
        .values(&stage("centroid-rankings"));

    // C_s: rankings that appear in no θc pair. The id set is small metadata
    // (bounded by 2·|pairs|) and is broadcast, like the frequency order.
    let non_singleton_ids: HashSet<u64> = rc
        .flat_map(&stage("paired-ids"), |hit| vec![hit.a.id(), hit.b.id()])
        .distinct(&stage("distinct-paired-ids"), partitions)
        .collect()
        .into_iter()
        .collect();
    JoinStats::add(&stats.clusters, clusters.count() as u64);
    let paired = cluster.broadcast(non_singleton_ids);
    let singletons = ordered.filter(&stage("singletons"), move |r: &Arc<OrderedRanking>| {
        !paired.value().contains(&r.id())
    });
    JoinStats::add(&stats.singletons, singletons.count() as u64);

    // Cluster-internal results. Centroid–member distances are known exactly;
    // member–member pairs are certified by the triangle bounds through the
    // centroid where possible (always, when 2·θc ≤ θ) and verified otherwise.
    let within_cluster_pairs = {
        let stats = Arc::clone(stats);
        clusters.flat_map(
            &stage("within-cluster-results"),
            move |(centroid, members)| {
                let mut out = Vec::new();
                for (member, d) in members {
                    if *d <= theta {
                        out.push(ordered_pair(*centroid, member.id()));
                    }
                }
                let mut counts = KernelCounts::default();
                for (i, (mi, di)) in members.iter().enumerate() {
                    for (mj, dj) in members.iter().skip(i + 1) {
                        // Legs: both members to their shared centroid.
                        out.extend(M::decide_by_triangle(
                            mi,
                            mj,
                            &[*di, *dj],
                            theta,
                            use_triangle_bounds,
                            &mut counts,
                        ));
                    }
                }
                counts.flush(&stats);
                out
            },
        )
    };

    Clustering {
        clusters,
        centroids_m,
        singletons,
        within_cluster_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::order_rankings;
    use minispark::ClusterConfig;
    use topk_rankings::distance::raw_threshold;
    use topk_rankings::{PrefixKind, Ranking};

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    /// Figure 3's setup: τ1, τ2, τ5 cluster around τ1; τ3, τ4 around τ3;
    /// τ6 is a singleton.
    fn figure3_dataset() -> Vec<Ranking> {
        vec![
            r(1, &[2, 5, 3, 4, 1]),
            r(2, &[2, 5, 4, 3, 1]),
            r(3, &[0, 8, 5, 3, 7]),
            r(4, &[8, 0, 5, 3, 7]),
            r(5, &[2, 5, 3, 1, 4]),
            r(6, &[6, 9, 0, 8, 5]),
        ]
    }

    fn run(theta: f64, theta_c: f64) -> (Clustering, Cluster) {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = figure3_dataset();
        let config = JoinConfig::new(theta).with_cluster_threshold(theta_c);
        let ordered = order_rankings(&cluster, &data, PrefixKind::Overlap, 4, "test");
        let stats = Arc::new(JoinStats::default());
        let clustering = clustering_phase(
            &cluster,
            &ordered,
            5,
            raw_threshold(5, theta),
            raw_threshold(5, theta_c),
            &config,
            4,
            &stats,
        );
        (clustering, cluster)
    }

    #[test]
    fn forms_figure3_clusters() {
        // θc = 0.1 → raw 3. Distances: (1,2) swap of ranks 2/3 → 2;
        // (1,5) swap of ranks 3/4 → 2; (2,5): [2,5,4,3,1] vs [2,5,3,1,4]:
        // item4: |2-4|=2, item3: |3-2|=1, item1: |4-3|=1 → 4 > 3;
        // (3,4) swap → 2. τ6 far from all.
        let (clustering, _) = run(0.2, 0.1);
        let mut clusters = clustering.clusters.collect();
        clusters.sort_by_key(|(c, _)| *c);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].0, 1);
        let mut members1: Vec<u64> = clusters[0].1.iter().map(|(m, _)| m.id()).collect();
        members1.sort();
        assert_eq!(members1, vec![2, 5]);
        assert_eq!(clusters[1].0, 3);
        assert_eq!(clusters[1].1.len(), 1);
        assert_eq!(clusters[1].1[0].0.id(), 4);

        let mut centroid_ids: Vec<u64> = clustering
            .centroids_m
            .collect()
            .into_iter()
            .map(|c| c.id())
            .collect();
        centroid_ids.sort();
        assert_eq!(centroid_ids, vec![1, 3]);

        let singleton_ids: Vec<u64> = clustering
            .singletons
            .collect()
            .into_iter()
            .map(|c| c.id())
            .collect();
        assert_eq!(singleton_ids, vec![6]);
    }

    #[test]
    fn within_cluster_pairs_cover_members() {
        let (clustering, _) = run(0.2, 0.1);
        let mut pairs = clustering.within_cluster_pairs.collect();
        pairs.sort();
        pairs.dedup();
        // Cluster {1,2,5}: (1,2), (1,5) centroid-member; (2,5) member-member
        // at distance 4 ≤ θ_raw = 6. Cluster {3,4}: (3,4).
        assert_eq!(pairs, vec![(1, 2), (1, 5), (2, 5), (3, 4)]);
    }

    #[test]
    fn member_member_verification_respects_theta() {
        // θ = 0.1 (raw 3): the member pair (2,5) at distance 4 must be
        // dropped even though both are within θc·Footrule of the centroid.
        let (clustering, _) = run(0.1, 0.1);
        let mut pairs = clustering.within_cluster_pairs.collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs, vec![(1, 2), (1, 5), (3, 4)]);
    }

    #[test]
    fn zero_theta_c_clusters_only_duplicates() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = figure3_dataset();
        let config = JoinConfig::new(0.2).with_cluster_threshold(0.0);
        let ordered = order_rankings(&cluster, &data, PrefixKind::Overlap, 4, "test");
        let stats = Arc::new(JoinStats::default());
        let clustering = clustering_phase(
            &cluster,
            &ordered,
            5,
            raw_threshold(5, 0.2),
            0,
            &config,
            4,
            &stats,
        );
        assert_eq!(clustering.clusters.count(), 0);
        assert_eq!(clustering.singletons.count(), 6);
        assert_eq!(stats.snapshot().singletons, 6);
    }
}
