//! The *Clustering* phase of CL/CL-P (§5.1).
//!
//! A similarity self-join at the (tiny) clustering threshold θc finds all
//! near-duplicate pairs. Every ranking then gets one **home**: the smallest
//! id among itself and its smaller-id θc neighbours. The distinct homes are
//! the pivots, and a pivot's cluster is exactly the rankings whose home it
//! is, so the clusters partition the rankings (DESIGN §5a, deviation 4).
//! A pivot need not be its own home: in a chain `a < b < c` with
//! `d(a,b), d(b,c) ≤ θc < d(a,c)`, `b` is a member of `a`'s cluster and the
//! pivot of `c`'s. Every member lies within θc of its pivot, which is all
//! Lemma 5.1 needs, and every pair inside one cluster is within `2·θc`, so
//! cluster-internal result pairs are emitted here (verified only when the
//! triangle bounds cannot certify them).
//!
//! The phase is written once over a `MetricSpace`; [`clustering_phase`] is
//! its Footrule instantiation.

use std::collections::HashSet;
use std::sync::Arc;

use minispark::{Cluster, Dataset, SkewBudget};
use topk_rankings::OrderedRanking;

use crate::kernels::{Footrule, MetricSpace};
use crate::pipeline::{prefix_join, PrefixSource};
use crate::stats::{JoinStats, KernelCounts};
use crate::JoinConfig;

/// `pivot id → [(member ranking, distance to pivot)]`, distances in the
/// join's space (raw Footrule by default). A row lists the pivot itself, at
/// distance 0, if and only if the pivot is its own home.
pub type ClusterTable<D = u64> = Dataset<(u64, Vec<(Arc<OrderedRanking>, D)>)>;

/// Output of the clustering phase.
pub struct Clustering<D = u64> {
    /// One row per non-singleton pivot: a pivot with a member other than
    /// itself, or one that is not its own home. The rows, together with the
    /// singleton pivots, partition the rankings: each ranking is listed
    /// exactly once, under its home.
    pub clusters: ClusterTable<D>,
    /// The non-singleton pivots `C_m`, one ranking per row of `clusters`.
    pub centroids_m: Dataset<Arc<OrderedRanking>>,
    /// The singleton pivots `C_s`: rankings that are their own home and
    /// nobody else's. Each is its own one member, at radius 0.
    pub singletons: Dataset<Arc<OrderedRanking>>,
    /// Result pairs inside one cluster, each once: pivot ↔ member at its
    /// known distance, member ↔ member through the pivot.
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

    // Homes: a ranking with a smaller-id θc neighbour (PairHit guarantees
    // a.id < b.id) is placed with the smallest of them, at their distance.
    // Pair ids are unique, so the minimum is too.
    let placements = rc
        .map(&stage("home-candidates"), |hit| {
            (
                hit.b.id(),
                (Arc::clone(&hit.a), Arc::clone(&hit.b), hit.distance),
            )
        })
        .reduce_by_key(&stage("homes"), partitions, |x, y| {
            if x.0.id() <= y.0.id() {
                x
            } else {
                y
            }
        });

    // Who is placed elsewhere and who receives someone: small metadata
    // (bounded by the θc pairs), read on the driver and broadcast like the
    // frequency order.
    let (placed, receiving): (HashSet<u64>, HashSet<u64>) = placements
        .collect()
        .iter()
        .map(|(member, (pivot, _, _))| (*member, pivot.id()))
        .unzip();
    let placed = cluster.broadcast(placed);

    // One row per pivot that receives someone: its members, led by the pivot
    // itself at distance 0 when it is its own home. The rows are the pivots'
    // runs, in pivot order, each in the order its assignments arrived.
    let rows = placements
        .map(&stage("member-assignments"), |(_, (pivot, member, d))| {
            (pivot.id(), (Arc::clone(pivot), Arc::clone(member), *d))
        })
        .into_group_runs(&stage("form-clusters"), partitions);
    let clusters = {
        let placed = placed.clone();
        rows.map_partitions(&stage("cluster-rows"), move |groups| {
            groups
                .iter()
                .map(|(pivot_id, entries)| {
                    let own_home = !placed.value().contains(pivot_id);
                    let pivot_itself = entries
                        .first()
                        .filter(|_| own_home)
                        .map(|(pivot, _, _)| (Arc::clone(pivot), M::ZERO));
                    let members: Vec<_> = pivot_itself
                        .into_iter()
                        .chain(entries.iter().map(|(_, m, d)| (Arc::clone(m), *d)))
                        .collect();
                    (*pivot_id, members)
                })
                .collect()
        })
    };
    let centroids_m = rows.into_map_partitions(&stage("centroid-rankings"), |groups| {
        groups
            .iter()
            .filter_map(|(_, entries)| entries.first().map(|(pivot, _, _)| Arc::clone(pivot)))
            .collect()
    });
    JoinStats::add(&stats.clusters, clusters.count() as u64);

    // C_s: rankings that are their own home and nobody else's.
    let receiving = cluster.broadcast(receiving);
    let singletons = ordered.filter(&stage("singletons"), move |r: &Arc<OrderedRanking>| {
        !placed.value().contains(&r.id()) && !receiving.value().contains(&r.id())
    });
    JoinStats::add(&stats.singletons, singletons.count() as u64);

    // Cluster-internal results: every pair of one member list, through the
    // pivot. A pivot–member pair has one leg, its exact distance.
    let within_cluster_pairs = {
        let stats = Arc::clone(stats);
        clusters.flat_map(&stage("within-cluster-results"), move |(pivot, members)| {
            let mut out = Vec::new();
            let mut counts = KernelCounts::default();
            for (i, (x, d_x)) in members.iter().enumerate() {
                for (y, d_y) in members.iter().skip(i + 1) {
                    out.extend(M::decide_by_triangle(
                        x,
                        y,
                        [
                            None,
                            (x.id() != *pivot).then_some(*d_x),
                            (y.id() != *pivot).then_some(*d_y),
                        ],
                        theta,
                        use_triangle_bounds,
                        &mut counts,
                    ));
                }
            }
            counts.flush(&stats);
            out
        })
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

    fn run_on(data: &[Ranking], theta: f64, theta_c: f64) -> (Clustering, Arc<JoinStats>) {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let k = data[0].k();
        let config = JoinConfig::new(theta).with_cluster_threshold(theta_c);
        let ordered = order_rankings(&cluster, data, PrefixKind::Overlap, 4, "test");
        let stats = Arc::new(JoinStats::default());
        let clustering = clustering_phase(
            &cluster,
            &ordered,
            k,
            raw_threshold(k, theta),
            raw_threshold(k, theta_c),
            &config,
            4,
            &stats,
        );
        (clustering, stats)
    }

    fn run(theta: f64, theta_c: f64) -> Clustering {
        run_on(&figure3_dataset(), theta, theta_c).0
    }

    /// The cluster table as sorted `(pivot, [(member, distance)])` rows.
    fn rows(clustering: &Clustering) -> Vec<(u64, Vec<(u64, u64)>)> {
        let mut rows: Vec<_> = clustering
            .clusters
            .collect()
            .into_iter()
            .map(|(pivot, members)| {
                let mut members: Vec<_> = members.iter().map(|(m, d)| (m.id(), *d)).collect();
                members.sort_unstable();
                (pivot, members)
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    fn ids(rankings: &Dataset<Arc<OrderedRanking>>) -> Vec<u64> {
        let mut ids: Vec<u64> = rankings.collect().iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn forms_figure3_clusters() {
        // θc = 0.1 → raw 3. Distances: (1,2) swap of ranks 2/3 → 2;
        // (1,5) swap of ranks 3/4 → 2; (2,5): [2,5,4,3,1] vs [2,5,3,1,4]:
        // item4: |2-4|=2, item3: |3-2|=1, item1: |4-3|=1 → 4 > 3;
        // (3,4) swap → 2. τ6 far from all. Each pivot is its own home, so
        // it leads its own row at distance 0.
        let clustering = run(0.2, 0.1);
        assert_eq!(
            rows(&clustering),
            vec![(1, vec![(1, 0), (2, 2), (5, 2)]), (3, vec![(3, 0), (4, 2)]),]
        );
        assert_eq!(ids(&clustering.centroids_m), vec![1, 3]);
        assert_eq!(ids(&clustering.singletons), vec![6]);
    }

    /// `a < b < c` with d(a,b) = 2, d(b,c) = 4 and d(a,c) = 6: each step
    /// replaces one item by a fresh one, one rank higher up.
    fn chain() -> Vec<Ranking> {
        vec![
            r(1, &[1, 2, 3, 4, 5]),
            r(2, &[1, 2, 3, 4, 6]),
            r(3, &[1, 2, 3, 7, 6]),
            r(4, &[11, 12, 13, 14, 15]),
        ]
    }

    #[test]
    fn a_pivot_need_not_be_its_own_home() {
        // θc = 4/30 → raw 4: τ2's home is τ1 (d = 2), τ3's is τ2 (d = 4,
        // while d(τ1, τ3) = 6 > 4). τ2 is a member of τ1's cluster and the
        // pivot of τ3's, whose row does not list τ2 itself.
        let (clustering, stats) = run_on(&chain(), 0.2, 4.0 / 30.0);
        assert_eq!(
            rows(&clustering),
            vec![(1, vec![(1, 0), (2, 2)]), (2, vec![(3, 4)])]
        );
        assert_eq!(ids(&clustering.centroids_m), vec![1, 2]);
        assert_eq!(ids(&clustering.singletons), vec![4]);
        let snap = stats.snapshot();
        assert_eq!((snap.clusters, snap.singletons), (2, 1));
        // Cluster {τ3} alone has no pair; (1,2) is a pivot–member pair.
        let mut pairs = clustering.within_cluster_pairs.collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn clusters_partition_the_rankings() {
        let orku = topk_datagen::CorpusProfile::orku_like(300, 10).generate();
        for (data, theta_c) in [
            (figure3_dataset(), 0.1),
            (chain(), 4.0 / 30.0),
            (chain(), 0.5),
            (orku.clone(), 0.03),
            (orku, 0.1),
        ] {
            let (clustering, _) = run_on(&data, 0.3, theta_c);
            let mut placed: Vec<u64> = rows(&clustering)
                .into_iter()
                .flat_map(|(_, members)| members.into_iter().map(|(id, _)| id))
                .chain(ids(&clustering.singletons))
                .collect();
            placed.sort_unstable();
            let all: Vec<u64> = data.iter().map(Ranking::id).collect();
            assert_eq!(placed, all, "θc = {theta_c}: not each ranking once");
        }
    }

    #[test]
    fn within_cluster_pairs_cover_members() {
        let clustering = run(0.2, 0.1);
        let mut pairs = clustering.within_cluster_pairs.collect();
        pairs.sort_unstable();
        // Cluster {1,2,5}: (1,2), (1,5) pivot–member; (2,5) member–member
        // at distance 4 ≤ θ_raw = 6. Cluster {3,4}: (3,4).
        assert_eq!(pairs, vec![(1, 2), (1, 5), (2, 5), (3, 4)]);
    }

    #[test]
    fn member_member_verification_respects_theta() {
        // θ = 0.1 (raw 3): the member pair (2,5) at distance 4 must be
        // dropped even though both are within θc·Footrule of the pivot.
        let clustering = run(0.1, 0.1);
        let mut pairs = clustering.within_cluster_pairs.collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (1, 5), (3, 4)]);
    }

    #[test]
    fn zero_theta_c_clusters_only_duplicates() {
        let (clustering, stats) = run_on(&figure3_dataset(), 0.2, 0.0);
        assert_eq!(clustering.clusters.count(), 0);
        assert_eq!(clustering.singletons.count(), 6);
        assert_eq!(stats.snapshot().singletons, 6);
    }

    /// On several partitions and slots, every cluster row of a pivot that is
    /// its own home starts with the pivot itself at distance 0, and no other
    /// row lists its pivot; the rows come out in the same order every run.
    #[test]
    fn every_cluster_row_starts_with_its_own_pivot() {
        let orku = topk_datagen::CorpusProfile::orku_like(600, 10).generate();
        let table = |clustering: &Clustering| -> Vec<(u64, Vec<(u64, u64)>)> {
            clustering
                .clusters
                .collect()
                .into_iter()
                .map(|(pivot, members)| {
                    (pivot, members.iter().map(|(m, d)| (m.id(), *d)).collect())
                })
                .collect()
        };
        let (clustering, _) = run_on(&orku, 0.3, 0.1);
        assert!(clustering.clusters.num_partitions() >= 2);
        let rows = table(&clustering);
        let placed: HashSet<u64> = rows
            .iter()
            .flat_map(|(pivot, members)| {
                members.iter().map(|&(m, _)| m).filter(move |m| m != pivot)
            })
            .collect();
        let mut led = 0;
        for (pivot, members) in &rows {
            let own = members.iter().position(|&(m, _)| m == *pivot);
            if placed.contains(pivot) {
                assert_eq!(
                    own, None,
                    "pivot {pivot} is placed elsewhere but lists itself"
                );
            } else {
                assert_eq!(own, Some(0), "pivot {pivot} does not lead its own row");
                assert_eq!(members[0].1, 0);
                led += 1;
            }
        }
        assert!(led > 1, "the corpus forms too few clusters to check");
        assert_eq!(table(&run_on(&orku, 0.3, 0.1).0), rows);
    }
}
