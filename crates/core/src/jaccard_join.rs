//! Similarity joins under **Jaccard distance** — the paper's announced
//! future work (§8). The dataflow is the Footrule one ([`crate::pipeline`]):
//! this module only supplies the Jaccard `JoinSpace` — prefix bound and
//! per-pair decision — plus the clustering/expansion steps over `f64`
//! distances, justified by Jaccard distance being a metric.
//!
//! Differences from the Footrule space:
//!
//! * records are treated as **sets** (rank positions are ignored),
//! * verification counts the overlap (`d_J = (2k − 2o)/(2k − o)` for two
//!   k-sets) instead of summing rank displacements,
//! * there is no position filter (ranks carry no information here),
//! * thresholds and distances are rationals represented as `f64`; all
//!   algorithms share one exact predicate
//!   ([`topk_rankings::jaccard::jaccard_within`]) so they decide candidate
//!   pairs identically, and the expansion's triangle bounds are applied
//!   with a conservative ε margin (a pruned/accepted decision is only taken
//!   when it holds with room to spare; everything else is verified).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use minispark::{Cluster, SkewBudget};
use topk_rankings::jaccard::{jaccard_prefix_len, jaccard_within};
use topk_rankings::{OrderedRanking, PrefixKind, Ranking};

use crate::config::{effective_partitions, validate_parameters};
use crate::kernels::{JoinSpace, TokenEntry};
use crate::pipeline::{order_rankings, prefix_join, uniform_k_of, PairHit, PrefixSource};
use crate::stats::JoinStats;
use crate::vj::run_prefix_join;
use crate::{JoinError, JoinOutcome};

/// Safety margin for floating-point triangle bounds (distances are
/// rationals with denominator ≤ 2k; 1e-9 is far below their granularity).
const EPS: f64 = 1e-9;

/// Configuration of a Jaccard join.
#[derive(Debug, Clone, PartialEq)]
pub struct JaccardConfig {
    /// Jaccard distance threshold θ ∈ [0, 1].
    pub theta: f64,
    /// Clustering threshold θc for the CL variant.
    pub cluster_threshold: f64,
    /// Partitioning threshold δ for the CL-P variant (Algorithm 3 applied
    /// to sets): posting lists longer than this are split.
    pub partition_threshold: usize,
    /// Reduce-side partitions (0 = cluster default).
    pub partitions: usize,
    /// Opt-in skew handling for the token-grouped joins (see
    /// [`crate::JoinConfig::skew`]); `partition_threshold` remains CL-P's
    /// always-on δ.
    pub skew: SkewBudget,
}

impl JaccardConfig {
    /// A configuration with the paper-style default θc = 0.05 (Jaccard
    /// distances are coarser than Footrule, so a slightly larger clustering
    /// radius pays off).
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            cluster_threshold: 0.05,
            partition_threshold: 2_000,
            partitions: 0,
            skew: SkewBudget::Off,
        }
    }

    /// Sets the skew-handling policy for the token-grouped joins.
    pub fn with_skew(mut self, skew: SkewBudget) -> Self {
        self.skew = skew;
        self
    }

    /// Sets the partitioning threshold δ.
    pub fn with_partition_threshold(mut self, delta: usize) -> Self {
        self.partition_threshold = delta;
        self
    }

    /// Sets θc.
    pub fn with_cluster_threshold(mut self, theta_c: f64) -> Self {
        self.cluster_threshold = theta_c;
        self
    }

    fn validate(&self) -> Result<(), JoinError> {
        validate_parameters(
            [self.theta, self.cluster_threshold],
            self.partition_threshold,
            self.skew,
        )
    }
}

type SetRecord = Arc<OrderedRanking>;

#[inline]
fn within(a: &OrderedRanking, b: &OrderedRanking, theta: f64, stats: &JoinStats) -> Option<f64> {
    JoinStats::bump(&stats.candidates);
    JoinStats::bump(&stats.verified);
    // Overlap over the pair representation (item order is canonical-
    // frequency order; only membership matters).
    let o = a
        .pairs()
        .iter()
        .filter(|(item, _)| b.pairs().iter().any(|(other, _)| other == item))
        .count();
    let total = a.k() + b.k();
    // cast(total ≤ 2·MAX_K ≤ 2^17 — exact in f64)
    let num = (total - 2 * o) as f64;
    let den = (total - o) as f64;
    if num <= theta * den {
        JoinStats::bump(&stats.result_pairs);
        Some(if den == 0.0 { 0.0 } else { num / den })
    } else {
        None
    }
}

/// The Jaccard space over `k`-sets: thresholds and prefix lengths by centroid
/// type (all equal outside the CL centroid join), no position filter.
#[derive(Debug, Clone, Copy)]
struct Jaccard {
    /// Thresholds for non-singleton pairs, mixed pairs, singleton pairs.
    thresholds: (f64, f64, f64),
    /// Prefix lengths of non-singleton and of singleton records.
    prefix_lens: (usize, usize),
}

impl Jaccard {
    /// The plain join at one threshold.
    fn uniform(k: usize, theta: f64) -> Self {
        let p = jaccard_prefix_len(k, theta);
        Self {
            thresholds: (theta, theta, theta),
            prefix_lens: (p, p),
        }
    }
}

impl JoinSpace for Jaccard {
    type Dist = f64;

    fn prefix_len(&self, _ranking: &OrderedRanking, singleton: bool) -> usize {
        if singleton {
            self.prefix_lens.1
        } else {
            self.prefix_lens.0
        }
    }

    /// θ = 1 admits disjoint pairs, which share no token. Keyed on the
    /// loosest threshold for either type: one sentinel group for everyone.
    fn admits_disjoint(&self, _singleton: bool) -> bool {
        self.thresholds.0 >= 1.0 - EPS
    }

    #[inline]
    fn decide(&self, a: &TokenEntry, b: &TokenEntry, stats: &JoinStats) -> Option<f64> {
        let threshold = match (a.singleton, b.singleton) {
            (false, false) => self.thresholds.0,
            (true, true) => self.thresholds.2,
            _ => self.thresholds.1,
        };
        within(&a.ranking, &b.ranking, threshold, stats)
    }
}

/// The flat join over one relation or two: [`run_prefix_join`] in the
/// Jaccard space (nested-loop groups — the VJ-NL analogue for sets).
fn jaccard_vj(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    config: &JaccardConfig,
    label: &str,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    run_prefix_join(
        cluster,
        relations,
        PrefixKind::Overlap,
        config.partitions,
        None,
        config.skew,
        label,
        || Ok(uniform_k_of(relations)?.map(|k| Jaccard::uniform(k, config.theta))),
    )
}

/// The flat prefix-filtered Jaccard join (the VJ-NL analogue for sets).
pub fn jaccard_vj_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    jaccard_vj(cluster, &[data], config, "jaccard-vj")
}

/// The flat prefix-filtered Jaccard join over **two relations** (R-S join):
/// only cross-relation pairs are candidates and the output pairs are
/// `(left id, right id)`, sorted — the id spaces of R and S may overlap.
pub fn jaccard_vj_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    jaccard_vj(cluster, &[left, right], config, "jaccard-vj-rs")
}

/// Exact quadratic Jaccard R-S baseline: every cross-relation pair, output
/// `(left id, right id)`, sorted.
pub fn jaccard_brute_force_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    theta: f64,
) -> Result<JoinOutcome, JoinError> {
    if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
        return Err(JoinError::InvalidThreshold(theta));
    }
    let start = Instant::now();
    if crate::pipeline::rs_uniform_k(left, right)?.is_none() {
        return Ok(JoinOutcome::empty(start.elapsed()));
    }
    let shared_right = cluster.broadcast(Arc::new(right.to_vec()));
    let partitions = cluster.config().default_partitions;
    let left_ds = cluster.parallelize(left.to_vec(), partitions);
    let pairs_ds = left_ds.flat_map("jaccard-bf-rs/compare", move |a: &Ranking| {
        let right = shared_right.value();
        let mut out = Vec::new();
        for b in right.iter() {
            if jaccard_within(a, b, theta).is_some() {
                out.push((a.id(), b.id()));
            }
        }
        out
    });
    let mut pairs = pairs_ds
        .distinct("jaccard-bf-rs/distinct", partitions)
        .collect();
    pairs.sort_unstable();
    Ok(JoinOutcome {
        pairs,
        stats: crate::stats::StatsSnapshot::default(),
        elapsed: start.elapsed(),
    })
}

/// The CL pipeline under Jaccard distance: cluster at θc, join centroids at
/// `min(θ + 2θc, 1)`, expand with (ε-guarded) triangle bounds.
pub fn jaccard_cl_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    jaccard_cl_flavour(cluster, data, config, None)
}

/// CL-P for sets: the CL pipeline with Algorithm-3 repartitioning of the
/// centroid join's posting lists at `config.partition_threshold`.
pub fn jaccard_clp_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    jaccard_cl_flavour(cluster, data, config, Some(config.partition_threshold))
}

fn jaccard_cl_flavour(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
    delta: Option<usize>,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    let start = Instant::now();
    let Some(k) = crate::pipeline::uniform_k(data)? else {
        return Ok(JoinOutcome::empty(start.elapsed()));
    };
    let theta = config.theta;
    let theta_c = config.cluster_threshold;
    let partitions = effective_partitions(config.partitions, cluster.config().default_partitions);
    let stats = Arc::new(JoinStats::default());

    // Phase spans mirror the Footrule CL driver: Ordering → Clustering →
    // Joining → Expansion → Dedup on the trace timeline (no-ops unless the
    // cluster records a trace). The guard is rebound at each section break.
    let run_span = cluster.trace().span("jaccard-cl/run");
    let phase = cluster.trace().span("jaccard-cl/phase/ordering");
    let ordered = order_rankings(cluster, data, PrefixKind::Overlap, partitions, "jaccard-cl");
    drop(phase);

    // ---- Clustering at θc. ------------------------------------------------
    let phase = cluster.trace().span("jaccard-cl/phase/clustering");
    let rc = prefix_join(
        &[PrefixSource::plain(&ordered)],
        &Jaccard::uniform(k, theta_c),
        partitions,
        None,
        config.skew,
        &stats,
        "jaccard-cl/cluster",
    );
    let clusters = rc
        .map("jaccard-cl/assignments", |h| {
            (h.a.id(), (Arc::clone(&h.b), h.distance))
        })
        .group_by_key("jaccard-cl/form-clusters", partitions);
    // Keep-first is value-deterministic: all values under one centroid id
    // are `Arc`s of the same canonical record.
    let centroids_m = rc
        .map("jaccard-cl/centroid-candidates", |h| {
            (h.a.id(), Arc::clone(&h.a))
        })
        .reduce_by_key("jaccard-cl/dedup-centroids", partitions, |a, _| a)
        .values("jaccard-cl/centroids");
    let paired_ids: HashSet<u64> = rc
        .flat_map("jaccard-cl/paired-ids", |h| vec![h.a.id(), h.b.id()])
        .distinct("jaccard-cl/distinct-ids", partitions)
        .collect()
        .into_iter()
        .collect();
    JoinStats::add(&stats.clusters, clusters.count() as u64);
    let paired = cluster.broadcast(paired_ids);
    let singletons = {
        let paired = paired.clone();
        ordered.filter("jaccard-cl/singletons", move |r: &SetRecord| {
            !paired.value().contains(&r.id())
        })
    };
    JoinStats::add(&stats.singletons, singletons.count() as u64);

    // Cluster-internal results.
    let within_cluster = {
        let stats = Arc::clone(&stats);
        clusters.flat_map("jaccard-cl/within-cluster", move |(centroid, members)| {
            let mut out = Vec::new();
            for (m, d) in members {
                if *d <= theta {
                    out.push(ordered_ids(*centroid, m.id()));
                }
            }
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let (mi, di) = &members[i];
                    let (mj, dj) = &members[j];
                    if mi.id() == mj.id() {
                        continue;
                    }
                    if di + dj <= theta - EPS {
                        JoinStats::bump(&stats.triangle_accepted);
                        out.push(ordered_ids(mi.id(), mj.id()));
                    } else if (di - dj).abs() > theta + EPS {
                        JoinStats::bump(&stats.triangle_pruned);
                    } else if within(mi, mj, theta, &stats).is_some() {
                        out.push(ordered_ids(mi.id(), mj.id()));
                    }
                }
            }
            out
        })
    };

    drop(phase);

    // ---- Joining the centroids at θ + 2θc (mixed thresholds per type). ----
    let phase = cluster.trace().span("jaccard-cl/phase/joining");
    let theta_o = (theta + 2.0 * theta_c).min(1.0);
    let theta_ms = (theta + theta_c).min(1.0);
    let space = Jaccard {
        thresholds: (theta_o, theta_ms, theta),
        prefix_lens: (
            jaccard_prefix_len(k, theta_o),
            jaccard_prefix_len(k, theta_ms),
        ),
    };
    // Explicit δ (CL-P) wins; otherwise the skew policy may opt the centroid
    // join into splitting.
    let cjoin = prefix_join(
        &PrefixSource::centroids(&centroids_m, &singletons),
        &space,
        partitions,
        delta,
        config.skew,
        &stats,
        "jaccard-cl/join",
    );

    drop(phase);

    // ---- Expansion. --------------------------------------------------------
    let phase = cluster.trace().span("jaccard-cl/phase/expansion");
    let direct = cjoin
        .filter("jaccard-cl/direct", move |h: &PairHit<f64>| {
            h.distance <= theta
        })
        .map("jaccard-cl/direct-ids", |h| (h.a.id(), h.b.id()));
    let rm = cjoin.filter("jaccard-cl/rm", |h: &PairHit<f64>| {
        !(h.a_singleton && h.b_singleton)
    });
    let member_vs_centroid = {
        let by_centroid = rm.flat_map("jaccard-cl/key-by-centroid", |h: &PairHit<f64>| {
            let mut out = Vec::with_capacity(2);
            if !h.a_singleton {
                out.push((h.a.id(), (Arc::clone(&h.b), h.distance)));
            }
            if !h.b_singleton {
                out.push((h.b.id(), (Arc::clone(&h.a), h.distance)));
            }
            out
        });
        let joined = by_centroid.join("jaccard-cl/join-members", &clusters, partitions);
        let stats = Arc::clone(&stats);
        joined.flat_map(
            "jaccard-cl/member-centroid",
            move |(_, ((other, d), members))| {
                let mut out = Vec::new();
                for (m, d_i) in members {
                    if m.id() == other.id() {
                        continue;
                    }
                    if (d - d_i).abs() > theta + EPS {
                        JoinStats::bump(&stats.triangle_pruned);
                    } else if d + d_i <= theta - EPS {
                        JoinStats::bump(&stats.triangle_accepted);
                        out.push(ordered_ids(m.id(), other.id()));
                    } else if within(m, other, theta, &stats).is_some() {
                        out.push(ordered_ids(m.id(), other.id()));
                    }
                }
                out
            },
        )
    };
    let member_vs_member = {
        let both_m = rm
            .filter("jaccard-cl/both-m", |h: &PairHit<f64>| {
                !h.a_singleton && !h.b_singleton
            })
            .map("jaccard-cl/key-mm", |h: &PairHit<f64>| {
                (h.a.id(), (h.b.id(), h.distance))
            });
        let with_a = both_m
            .join("jaccard-cl/join-a", &clusters, partitions)
            .map("jaccard-cl/rekey-b", rekey_by_second_centroid);
        let with_both = with_a.join("jaccard-cl/join-b", &clusters, partitions);
        let stats = Arc::clone(&stats);
        with_both.flat_map(
            "jaccard-cl/member-member",
            move |(_, ((d, members_a), members_b))| {
                let mut out = Vec::new();
                for (ma, d_a) in members_a {
                    for (mb, d_b) in members_b {
                        if ma.id() == mb.id() {
                            continue;
                        }
                        let lower = (d - d_a - d_b).max(d_a - d - d_b).max(d_b - d - d_a);
                        if lower > theta + EPS {
                            JoinStats::bump(&stats.triangle_pruned);
                        } else if d + d_a + d_b <= theta - EPS {
                            JoinStats::bump(&stats.triangle_accepted);
                            out.push(ordered_ids(ma.id(), mb.id()));
                        } else if within(ma, mb, theta, &stats).is_some() {
                            out.push(ordered_ids(ma.id(), mb.id()));
                        }
                    }
                }
                out
            },
        )
    };

    drop(phase);

    let phase = cluster.trace().span("jaccard-cl/phase/dedup");
    let mut pairs = direct
        .union(&member_vs_centroid)
        .union(&member_vs_member)
        .union(&within_cluster)
        .distinct("jaccard-cl/final-distinct", partitions)
        .collect();
    pairs.sort_unstable();
    drop(phase);
    drop(run_span);
    Ok(JoinOutcome {
        pairs,
        stats: stats.snapshot(),
        elapsed: start.elapsed(),
    })
}

/// Exact quadratic Jaccard baseline.
pub fn jaccard_brute_force(
    cluster: &Cluster,
    data: &[Ranking],
    theta: f64,
) -> Result<JoinOutcome, JoinError> {
    if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
        return Err(JoinError::InvalidThreshold(theta));
    }
    let start = Instant::now();
    crate::pipeline::uniform_k(data)?;
    let shared = cluster.broadcast(Arc::new(data.to_vec()));
    let partitions = cluster.config().default_partitions;
    let indices = cluster.parallelize((0..data.len()).collect(), partitions);
    let pairs_ds = indices.flat_map("jaccard-bf/compare", move |&i| {
        let data = shared.value();
        let a = &data[i];
        let mut out = Vec::new();
        for b in &data[i + 1..] {
            if jaccard_within(a, b, theta).is_some() {
                out.push(ordered_ids(a.id(), b.id()));
            }
        }
        out
    });
    let mut pairs = pairs_ds
        .distinct("jaccard-bf/distinct", partitions)
        .collect();
    pairs.sort_unstable();
    Ok(JoinOutcome {
        pairs,
        stats: crate::stats::StatsSnapshot::default(),
        elapsed: start.elapsed(),
    })
}

type JaccardMmRow = (u64, ((u64, f64), Vec<(SetRecord, f64)>));

/// Rekeys an `R_j ⋈ clusters` row by the second centroid (Algorithm 2).
fn rekey_by_second_centroid(
    (_, ((b_id, d), members_a)): &JaccardMmRow,
) -> (u64, (f64, Vec<(SetRecord, f64)>)) {
    (*b_id, (*d, members_a.clone()))
}

#[inline]
fn ordered_ids(x: u64, y: u64) -> (u64, u64) {
    if x < y {
        (x, y)
    } else {
        (y, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::ClusterConfig;
    use topk_datagen::CorpusProfile;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).with_default_partitions(8))
    }

    fn corpus() -> Vec<Ranking> {
        CorpusProfile::orku_like(300, 10).generate()
    }

    #[test]
    fn vj_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        for theta in [0.1, 0.3, 0.5, 0.7] {
            let expected = jaccard_brute_force(&c, &data, theta).unwrap().pairs;
            let got = jaccard_vj_join(&c, &data, &JaccardConfig::new(theta))
                .unwrap()
                .pairs;
            assert_eq!(got, expected, "θ = {theta}");
        }
    }

    #[test]
    fn cl_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        for theta in [0.2, 0.4, 0.6] {
            let expected = jaccard_brute_force(&c, &data, theta).unwrap().pairs;
            let got = jaccard_cl_join(&c, &data, &JaccardConfig::new(theta))
                .unwrap()
                .pairs;
            assert_eq!(got, expected, "θ = {theta}");
        }
    }

    #[test]
    fn clp_matches_brute_force_and_is_invariant_to_delta() {
        let c = cluster();
        let data = corpus();
        let expected = jaccard_brute_force(&c, &data, 0.4).unwrap().pairs;
        for delta in [1usize, 5, 40, 100_000] {
            let cfg = JaccardConfig::new(0.4).with_partition_threshold(delta);
            let got = jaccard_clp_join(&c, &data, &cfg).unwrap().pairs;
            assert_eq!(got, expected, "δ = {delta}");
        }
    }

    #[test]
    fn clp_actually_splits_lists() {
        let c = cluster();
        let data = corpus();
        let cfg = JaccardConfig::new(0.4).with_partition_threshold(3);
        let outcome = jaccard_clp_join(&c, &data, &cfg).unwrap();
        assert!(outcome.stats.posting_lists_split > 0);
        assert!(outcome.stats.rs_joins > 0);
    }

    #[test]
    fn cl_invariant_to_theta_c() {
        let c = cluster();
        let data = corpus();
        let expected = jaccard_brute_force(&c, &data, 0.4).unwrap().pairs;
        for theta_c in [0.0, 0.05, 0.1, 0.2] {
            let cfg = JaccardConfig::new(0.4).with_cluster_threshold(theta_c);
            let got = jaccard_cl_join(&c, &data, &cfg).unwrap().pairs;
            assert_eq!(got, expected, "θc = {theta_c}");
        }
    }

    #[test]
    fn extreme_thresholds() {
        let c = cluster();
        let data = CorpusProfile::dblp_like(120, 10).generate();
        for theta in [0.0, 1.0] {
            let expected = jaccard_brute_force(&c, &data, theta).unwrap().pairs;
            let vj = jaccard_vj_join(&c, &data, &JaccardConfig::new(theta))
                .unwrap()
                .pairs;
            assert_eq!(vj, expected, "VJ θ = {theta}");
            let cl = jaccard_cl_join(&c, &data, &JaccardConfig::new(theta))
                .unwrap()
                .pairs;
            assert_eq!(cl, expected, "CL θ = {theta}");
        }
    }

    #[test]
    fn clustering_forms_and_triangle_bounds_fire() {
        let c = cluster();
        let data = corpus();
        let outcome = jaccard_cl_join(&c, &data, &JaccardConfig::new(0.4)).unwrap();
        assert!(outcome.stats.clusters > 0);
        assert!(outcome.stats.triangle_accepted + outcome.stats.triangle_pruned > 0);
    }

    #[test]
    fn rs_matches_brute_force_with_overlapping_ids() {
        let c = cluster();
        // Same profile, different seeds → overlapping id spaces with
        // genuinely different records, plus real near-matches.
        let left = CorpusProfile::orku_like(160, 10).generate();
        let right = CorpusProfile::orku_like(120, 10).with_seed(7).generate();
        for theta in [0.2, 0.5, 1.0] {
            let expected = jaccard_brute_force_rs(&c, &left, &right, theta)
                .unwrap()
                .pairs;
            let got = jaccard_vj_join_rs(&c, &left, &right, &JaccardConfig::new(theta))
                .unwrap()
                .pairs;
            assert_eq!(got, expected, "θ = {theta}");
            if theta >= 1.0 {
                // θ = 1 admits every cross pair, including disjoint ones.
                assert_eq!(expected.len(), 160 * 120, "θ = 1 matches everything");
            }
        }
    }

    #[test]
    fn rs_empty_sides_and_skew_invariance() {
        let c = cluster();
        let left = CorpusProfile::orku_like(140, 10).generate();
        let right = CorpusProfile::orku_like(90, 10).with_seed(3).generate();
        assert!(jaccard_vj_join_rs(&c, &left, &[], &JaccardConfig::new(0.4))
            .unwrap()
            .pairs
            .is_empty());
        assert!(
            jaccard_vj_join_rs(&c, &[], &right, &JaccardConfig::new(0.4))
                .unwrap()
                .pairs
                .is_empty()
        );
        let expected = jaccard_brute_force_rs(&c, &left, &right, 0.5)
            .unwrap()
            .pairs;
        for skew in [SkewBudget::Off, SkewBudget::Auto, SkewBudget::Fixed(4)] {
            let cfg = JaccardConfig::new(0.5).with_skew(skew);
            let got = jaccard_vj_join_rs(&c, &left, &right, &cfg).unwrap().pairs;
            assert_eq!(got, expected, "skew = {skew:?}");
        }
    }

    #[test]
    fn empty_and_invalid_inputs() {
        let c = cluster();
        assert!(jaccard_vj_join(&c, &[], &JaccardConfig::new(0.3))
            .unwrap()
            .pairs
            .is_empty());
        assert!(jaccard_cl_join(&c, &[], &JaccardConfig::new(0.3))
            .unwrap()
            .pairs
            .is_empty());
        assert!(jaccard_vj_join(&c, &[], &JaccardConfig::new(1.5)).is_err());
        assert!(jaccard_brute_force(&c, &[], f64::NAN).is_err());
        let zero_delta = JaccardConfig::new(0.3).with_partition_threshold(0);
        assert!(matches!(
            jaccard_clp_join(&c, &[], &zero_delta),
            Err(JoinError::InvalidPartitionThreshold)
        ));
    }
}
