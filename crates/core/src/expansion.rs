//! The *Expansion* phase (Algorithm 2, §5.3): turns centroid-level join
//! results back into ranking-level results.
//!
//! The clusters partition the rankings, so every result pair across two
//! clusters lies in members(a) × members(b) of exactly one centroid-join hit
//! `(a, b)`, and the centroid join returns each hit once. Expansion therefore
//! makes one decision per member pair and emits each result once:
//!
//! * A singleton pivot is its own one member at distance 0; a non-singleton
//!   pivot's members are its row of the cluster table. The table is small —
//!   one row per non-singleton pivot, 2 043 rows holding 4 261 of
//!   `clp-dense`'s 13 000 rankings — so the driver collects it once into a
//!   map keyed by pivot id and broadcasts it, Spark's broadcast hash join:
//!   each hit looks both of its pivots up, and the phase is one narrow stage
//!   with no shuffle.
//! * A member pair `(x, y)` of hit `(a, b)` is reached through the legs
//!   `d(a,b)`, `d(x,a)` and `d(y,b)`, where a member that is its pivot has
//!   no leg (`MetricSpace::decide_by_triangle`). A path of one leg is the
//!   exact distance: the two pivots, or a member against the other pivot.
//!   Otherwise the metric's triangle inequality prunes the pair when some
//!   leg exceeds θ plus the others and accepts it unverified when the legs
//!   sum to at most θ; what is left is verified.
//!
//! The phase is written once over a `MetricSpace`; [`expansion`] is its
//! Footrule instantiation.

use std::collections::HashMap;
use std::sync::Arc;

use minispark::Dataset;
use topk_rankings::OrderedRanking;

use crate::kernels::{Footrule, MetricSpace};
use crate::pipeline::PairHit;
use crate::stats::{JoinStats, KernelCounts};

pub(crate) use crate::clustering::ClusterTable;

type Members<D> = Vec<(Arc<OrderedRanking>, D)>;

/// Expands the centroid-join result `cjoin` against the cluster table,
/// returning every ranking-level result pair across two clusters, each once.
///
/// `_partitions` is unused: the expansion runs as one narrow stage over
/// `cjoin`'s own partitions. The argument stays so the signature does not
/// change under existing callers.
pub fn expansion(
    cjoin: &Dataset<PairHit>,
    clusters: &ClusterTable,
    theta_raw: u64,
    use_triangle_bounds: bool,
    _partitions: usize,
    stats: &Arc<JoinStats>,
) -> Dataset<(u64, u64)> {
    expansion_in::<Footrule>(cjoin, clusters, theta_raw, use_triangle_bounds, stats)
}

/// The expansion phase in the metric space `M`, at the join threshold
/// `theta`.
pub(crate) fn expansion_in<M: MetricSpace>(
    cjoin: &Dataset<PairHit<M::Dist>>,
    clusters: &ClusterTable<M::Dist>,
    theta: M::Dist,
    use_triangle_bounds: bool,
    stats: &Arc<JoinStats>,
) -> Dataset<(u64, u64)> {
    let table: HashMap<u64, Members<M::Dist>> = clusters.collect().into_iter().collect();
    let table = cjoin.cluster().broadcast(table);
    let stats = Arc::clone(stats);
    cjoin.flat_map(
        &format!("{}/expand/member-pairs", M::CL_STAGES),
        move |hit| {
            // A pivot without a row is a singleton: its own one member.
            let (own_a, own_b) = (
                [(Arc::clone(&hit.a), M::ZERO)],
                [(Arc::clone(&hit.b), M::ZERO)],
            );
            let row_a = table.get(&hit.a.id());
            let row_b = table.get(&hit.b.id());
            debug_assert_eq!(row_a.is_none(), hit.a_singleton, "pivot {}", hit.a.id());
            debug_assert_eq!(row_b.is_none(), hit.b_singleton, "pivot {}", hit.b.id());
            let members_a = row_a.map_or(&own_a[..], Vec::as_slice);
            let members_b = row_b.map_or(&own_b[..], Vec::as_slice);
            let mut out = Vec::new();
            let mut counts = KernelCounts::default();
            for (x, d_x) in members_a {
                for (y, d_y) in members_b {
                    out.extend(M::decide_by_triangle(
                        x,
                        y,
                        [
                            Some(hit.distance),
                            (x.id() != hit.a.id()).then_some(*d_x),
                            (y.id() != hit.b.id()).then_some(*d_y),
                        ],
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::{Cluster, ClusterConfig};
    use topk_rankings::{FrequencyTable, Ranking, Relation};

    fn ranking(id: u64, items: &[u32]) -> Arc<OrderedRanking> {
        let r = Ranking::new(id, items.to_vec()).unwrap();
        Arc::new(OrderedRanking::by_frequency(&r, &FrequencyTable::default()))
    }

    fn hit(
        a: &Arc<OrderedRanking>,
        b: &Arc<OrderedRanking>,
        a_singleton: bool,
        b_singleton: bool,
    ) -> PairHit {
        let d = a.footrule_raw(b);
        let (a, b, a_singleton, b_singleton) = if a.id() < b.id() {
            (Arc::clone(a), Arc::clone(b), a_singleton, b_singleton)
        } else {
            (Arc::clone(b), Arc::clone(a), b_singleton, a_singleton)
        };
        PairHit {
            a,
            b,
            distance: d,
            a_singleton,
            b_singleton,
            a_relation: Relation::Left,
            b_relation: Relation::Left,
        }
    }

    /// Two clusters with one member besides their pivot, plus a singleton.
    /// c1 = τ1, member τ2 (d = 2); c3 = τ3, member τ4 (d = 2); singleton τ9.
    struct Fixture {
        cluster: Cluster,
        cjoin: Dataset<PairHit>,
        clusters: ClusterTable,
        theta_raw: u64,
    }

    fn fixture() -> Fixture {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let t1 = ranking(1, &[1, 2, 3, 4, 5]);
        let t2 = ranking(2, &[2, 1, 3, 4, 5]);
        let t3 = ranking(3, &[1, 2, 3, 5, 4]);
        let t4 = ranking(4, &[2, 1, 3, 5, 4]);
        let t9 = ranking(9, &[1, 2, 3, 4, 9]);
        let cjoin = cluster.parallelize(
            vec![
                hit(&t1, &t3, false, false),
                hit(&t1, &t9, false, true),
                hit(&t3, &t9, false, true),
            ],
            2,
        );
        let clusters = cluster.parallelize(
            vec![
                (1u64, vec![(Arc::clone(&t1), 0), (Arc::clone(&t2), 2u64)]),
                (3u64, vec![(Arc::clone(&t3), 0), (Arc::clone(&t4), 2u64)]),
            ],
            2,
        );
        Fixture {
            cluster,
            cjoin,
            clusters,
            theta_raw: 6, // θ = 0.2 on k = 5
        }
    }

    #[test]
    fn expansion_produces_all_cross_cluster_pairs() {
        let f = fixture();
        let stats = Arc::new(JoinStats::default());
        let mut pairs = expansion(&f.cjoin, &f.clusters, f.theta_raw, true, 4, &stats).collect();
        pairs.sort_unstable();
        // Pivot pairs: (1,3) d=2, (1,9) d=2, (3,9) d=4. Member expansions
        // (all within θ_raw = 6): (2,3), (2,9), (1,4), (4,9), and
        // member-member (2,4). Each comes once, and within-cluster pairs
        // such as (1,2) and (3,4) are the clustering phase's job and must
        // NOT appear here.
        assert_eq!(
            pairs,
            vec![
                (1, 3),
                (1, 4),
                (1, 9),
                (2, 3),
                (2, 4),
                (2, 9),
                (3, 9),
                (4, 9)
            ]
        );
        let _ = f.cluster;
    }

    #[test]
    fn triangle_bounds_fire() {
        let f = fixture();
        let stats = Arc::new(JoinStats::default());
        let _ = expansion(&f.cjoin, &f.clusters, f.theta_raw, true, 4, &stats).collect();
        let snap = stats.snapshot();
        // d + dᵢ ≤ θ holds for e.g. (member τ2, centroid τ3): 2 + 2 ≤ 6.
        assert!(
            snap.triangle_accepted > 0,
            "no triangle acceptances: {snap}"
        );
    }

    #[test]
    fn triangle_pruning_discards_far_members() {
        // Member far from its centroid's partner: d(c1,c3) small but the
        // member sits at distance where |d − dᵢ| > θ.
        let cluster = Cluster::new(ClusterConfig::local(2));
        let c1 = ranking(1, &[1, 2, 3, 4, 5]);
        let c3 = ranking(3, &[2, 1, 3, 4, 5]);
        let far = ranking(2, &[11, 12, 13, 14, 15]);
        let cjoin = cluster.parallelize(vec![hit(&c1, &c3, false, true)], 1);
        // Fake a cluster table claiming τ2 is a member at distance 29 —
        // |2 − 29| = 27 > 6 → pruned without verification.
        let clusters = cluster.parallelize(vec![(1u64, vec![(c1, 0), (far, 29u64)])], 1);
        let stats = Arc::new(JoinStats::default());
        let pairs = expansion(&cjoin, &clusters, 6, true, 2, &stats).collect();
        assert_eq!(pairs, vec![(1, 3)], "pivots (1,3), nothing from members");
        let snap = stats.snapshot();
        assert_eq!(snap.triangle_pruned, 1);
        assert_eq!(snap.verified, 0);
    }

    #[test]
    fn triangle_accept_is_exact_at_the_u64_boundary() {
        // Integer distances need no guard band: a member whose path through
        // the centroids sums to exactly θ_raw is accepted unverified, one raw
        // unit more and it is verified. d(c1, c3) = 2, d(m, c1) = 2 and the
        // two swaps are disjoint, so d(m, c3) = 4 = the path length.
        let cluster = Cluster::new(ClusterConfig::local(2));
        let c1 = ranking(1, &[1, 2, 3, 4, 5]);
        let c3 = ranking(3, &[2, 1, 3, 4, 5]);
        let m = ranking(2, &[1, 2, 3, 5, 4]);
        assert_eq!((c1.footrule_raw(&c3), m.footrule_raw(&c3)), (2, 4));
        let cjoin = cluster.parallelize(vec![hit(&c1, &c3, false, true)], 1);
        let clusters = cluster.parallelize(vec![(1u64, vec![(c1, 0), (m, 2u64)])], 1);

        let at_path = Arc::new(JoinStats::default());
        let pairs = expansion(&cjoin, &clusters, 4, true, 2, &at_path).collect();
        assert_eq!(pairs, vec![(1, 3), (2, 3)]);
        let snap = at_path.snapshot();
        assert_eq!((snap.triangle_accepted, snap.verified), (1, 0));

        let one_short = Arc::new(JoinStats::default());
        let pairs = expansion(&cjoin, &clusters, 3, true, 2, &one_short).collect();
        assert_eq!(
            pairs,
            vec![(1, 3)],
            "d(m, c3) = 4 > 3 — verified and dropped"
        );
        let snap = one_short.snapshot();
        assert_eq!((snap.triangle_accepted, snap.triangle_pruned), (0, 0));
        assert_eq!((snap.verified, snap.result_pairs), (1, 0));
    }
}
