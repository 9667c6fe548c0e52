//! The *Expansion* phase (Algorithm 2, §5.3): turns centroid-level join
//! results back into ranking-level results.
//!
//! * Pairs of **singleton** centroids are results as-is (both sides are the
//!   actual rankings); more generally any centroid pair within θ is emitted
//!   directly.
//! * Pairs with a non-singleton side are joined with the cluster table so
//!   that members meet the other centroid (`R_m,c`) and, when both sides
//!   have members, each other (`R_m,m`).
//! * The metric's triangle inequality prunes and accepts candidates before
//!   any distance computation: for a candidate `(τi, cj)` with known
//!   `d(τi, ci) = dᵢ` and `d(ci, cj) = d`, it holds that
//!   `|d − dᵢ| ≤ d(τi, cj) ≤ d + dᵢ`, so the pair is discarded when
//!   `|d − dᵢ| > θ` and accepted unverified when `d + dᵢ ≤ θ`. Member-member
//!   candidates use the three-leg analogue
//!   (`MetricSpace::decide_by_triangle`).
//!
//! The phase is written once over a `MetricSpace`; [`expansion`] is its
//! Footrule instantiation.

use std::sync::Arc;

use minispark::Dataset;
use topk_rankings::OrderedRanking;

use crate::kernels::{Footrule, MetricSpace};
use crate::pipeline::PairHit;
use crate::stats::{JoinStats, KernelCounts};

pub(crate) use crate::clustering::ClusterTable;

type Members<D> = Vec<(Arc<OrderedRanking>, D)>;

type MmJoinRow<D> = (u64, ((u64, D), Members<D>));

/// Rekeys an `R_j ⋈ clusters` row by the pair's second centroid so the
/// second join can attach that side's members (Algorithm 2's transformation
/// "so that the second centroid is set as key of the tuples").
fn rekey_by_second_centroid<D: Copy>(
    (_, ((b_id, d), members_a)): &MmJoinRow<D>,
) -> (u64, (D, Members<D>)) {
    (*b_id, (*d, members_a.clone()))
}

/// Expands the centroid-join result `cjoin` against the cluster table,
/// returning all ranking-level result pairs contributed by this phase
/// (duplicates possible; the caller runs the final `distinct`).
pub fn expansion(
    cjoin: &Dataset<PairHit>,
    clusters: &ClusterTable,
    theta_raw: u64,
    use_triangle_bounds: bool,
    partitions: usize,
    stats: &Arc<JoinStats>,
) -> Dataset<(u64, u64)> {
    expansion_in::<Footrule>(
        cjoin,
        clusters,
        theta_raw,
        use_triangle_bounds,
        partitions,
        stats,
    )
}

/// The expansion phase in the metric space `M`, at the join threshold
/// `theta`.
pub(crate) fn expansion_in<M: MetricSpace>(
    cjoin: &Dataset<PairHit<M::Dist>>,
    clusters: &ClusterTable<M::Dist>,
    theta: M::Dist,
    use_triangle_bounds: bool,
    partitions: usize,
    stats: &Arc<JoinStats>,
) -> Dataset<(u64, u64)> {
    let stage = |name: &str| format!("{}/expand/{name}", M::CL_STAGES);

    // Centroid pairs within θ are results themselves (this covers all of
    // R_s — singleton pairs are verified against θ — plus close centroid
    // pairs of the other types).
    let direct = cjoin
        .filter(&stage("direct"), move |hit| hit.distance <= theta)
        .map(&stage("direct-ids"), PairHit::ids);

    // R_m: pairs with at least one non-singleton side.
    let rm = cjoin.filter(&stage("rm"), |hit| !(hit.a_singleton && hit.b_singleton));

    // R_m,c: members of each non-singleton side against the other centroid.
    let member_vs_centroid = {
        let by_centroid = rm.flat_map(&stage("key-by-centroid"), |hit| {
            let mut out = Vec::with_capacity(2);
            if !hit.a_singleton {
                out.push((hit.a.id(), (Arc::clone(&hit.b), hit.distance)));
            }
            if !hit.b_singleton {
                out.push((hit.b.id(), (Arc::clone(&hit.a), hit.distance)));
            }
            out
        });
        let joined = by_centroid.join(&stage("join-clusters"), clusters, partitions);
        let stats = Arc::clone(stats);
        joined.flat_map(
            &stage("member-centroid"),
            move |(_, ((other, d), members))| {
                let mut out = Vec::new();
                let mut counts = KernelCounts::default();
                for (member, d_i) in members {
                    // Legs: other centroid – the member's centroid – member.
                    out.extend(M::decide_by_triangle(
                        member,
                        other,
                        &[*d, *d_i],
                        theta,
                        use_triangle_bounds,
                        &mut counts,
                    ));
                }
                counts.flush(&stats);
                out
            },
        )
    };

    // R_m,m: member × member across two non-singleton clusters.
    let member_vs_member = {
        let both_m = rm
            .filter(&stage("both-m"), |hit| !hit.a_singleton && !hit.b_singleton)
            .map(&stage("key-mm"), |hit| {
                (hit.a.id(), (hit.b.id(), hit.distance))
            });
        let with_a_members = both_m
            .join(&stage("join-a-members"), clusters, partitions)
            .map(&stage("rekey-by-b"), rekey_by_second_centroid);
        let with_both = with_a_members.join(&stage("join-b-members"), clusters, partitions);
        let stats = Arc::clone(stats);
        with_both.flat_map(
            &stage("member-member"),
            move |(_, ((d, members_a), members_b))| {
                let mut out = Vec::new();
                let mut counts = KernelCounts::default();
                for (ma, d_a) in members_a {
                    for (mb, d_b) in members_b {
                        // Legs: centroid – centroid, then each member to its own.
                        out.extend(M::decide_by_triangle(
                            ma,
                            mb,
                            &[*d, *d_a, *d_b],
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

    direct.union(&member_vs_centroid).union(&member_vs_member)
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

    /// Two clusters with one member each, plus a singleton.
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
                (1u64, vec![(Arc::clone(&t2), 2u64)]),
                (3u64, vec![(Arc::clone(&t4), 2u64)]),
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
        let mut pairs = expansion(&f.cjoin, &f.clusters, f.theta_raw, true, 4, &stats)
            .distinct("dedup", 4)
            .collect();
        pairs.sort();
        // Direct centroid pairs: (1,3) d=2, (1,9) d=2, (3,9) d=4.
        // Member expansions (all within θ_raw = 6): (2,3), (2,9), (1,4),
        // (4,9), and member-member (2,4). Within-cluster pairs such as
        // (1,2) and (3,4) are the clustering phase's job and must NOT
        // appear here.
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
        let clusters = cluster.parallelize(vec![(1u64, vec![(far, 29u64)])], 1);
        let stats = Arc::new(JoinStats::default());
        let pairs = expansion(&cjoin, &clusters, 6, true, 2, &stats).collect();
        assert_eq!(pairs, vec![(1, 3)], "direct (1,3), nothing from members");
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
        let clusters = cluster.parallelize(vec![(1u64, vec![(m, 2u64)])], 1);

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
