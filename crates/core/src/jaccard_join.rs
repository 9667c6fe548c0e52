//! Similarity joins under **Jaccard distance** — the paper's announced
//! future work (§8). Both drivers are the Footrule ones — the flat dataflow
//! of [`crate::pipeline`] and the CL/CL-P driver of [`crate::cl`]: this
//! module only supplies the Jaccard space (`JoinSpace`: prefix bound and
//! per-pair decision; `MetricSpace`: ε-guarded triangle bounds and the
//! counted verification — Jaccard distance is a metric) and turns a
//! [`JaccardConfig`] into the spaces a run joins in.
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
//!   pairs identically, and the triangle bounds are applied with a
//!   conservative ε margin (a pruned/accepted decision is only taken when it
//!   holds with room to spare; everything else is verified).

use std::time::Instant;

use minispark::{Cluster, SkewBudget};
use topk_rankings::jaccard::{jaccard_prefix_len, jaccard_within};
use topk_rankings::{OrderedRanking, PrefixKind, Ranking};

use crate::baseline::all_pairs;
use crate::cl::{cl_flavour, ClPlan};
use crate::config::validate_parameters;
use crate::kernels::{JoinSpace, MetricSpace, TokenEntry};
use crate::pipeline::uniform_k_of;
use crate::stats::KernelCounts;
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
    /// Skew handling for the token-grouped joins (see
    /// [`crate::JoinConfig::skew`]); CL-P's centroid join splits at
    /// `Fixed(partition_threshold)` instead.
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

#[inline]
fn within(
    a: &OrderedRanking,
    b: &OrderedRanking,
    theta: f64,
    counts: &mut KernelCounts,
) -> Option<f64> {
    counts.candidates += 1;
    counts.verified += 1;
    // Overlap over the pair representation (item order is canonical-
    // frequency order; only membership matters).
    let o = a
        .pairs()
        .iter()
        .filter(|(item, _)| b.pairs().iter().any(|(other, _)| other == item))
        .count();
    let total = a.k() + b.k();
    #[expect(
        clippy::cast_precision_loss,
        reason = "total ≤ 2·MAX_K ≤ 2^17 — exact in f64"
    )]
    let num = (total - 2 * o) as f64;
    #[expect(
        clippy::cast_precision_loss,
        reason = "total ≤ 2·MAX_K ≤ 2^17 — exact in f64"
    )]
    let den = (total - o) as f64;
    if num <= theta * den {
        counts.result_pairs += 1;
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

    /// The centroid join of CL at `min(θ + 2θc, 1)`, with Lemma 5.3's
    /// relaxation for mixed and singleton pairs; singleton centroids emit
    /// the (sound) θ + θc prefix.
    fn centroids(k: usize, theta: f64, theta_c: f64) -> Self {
        let theta_o = (theta + 2.0 * theta_c).min(1.0);
        let theta_ms = (theta + theta_c).min(1.0);
        Self {
            thresholds: (theta_o, theta_ms, theta),
            prefix_lens: (
                jaccard_prefix_len(k, theta_o),
                jaccard_prefix_len(k, theta_ms),
            ),
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
    fn decide(&self, a: &TokenEntry, b: &TokenEntry, counts: &mut KernelCounts) -> Option<f64> {
        let threshold = match (a.singleton, b.singleton) {
            (false, false) => self.thresholds.0,
            (true, true) => self.thresholds.2,
            _ => self.thresholds.1,
        };
        within(&a.ranking, &b.ranking, threshold, counts)
    }
}

/// Sums and differences of `f64` distances round, so a triangle bound only
/// decides when it holds by more than [`EPS`].
impl MetricSpace for Jaccard {
    const CL_STAGES: &'static str = "jaccard-cl";
    const ZERO: f64 = 0.0;

    #[inline]
    fn certainly_within(legs: &[f64], theta: f64) -> bool {
        legs.iter().sum::<f64>() <= theta - EPS
    }

    #[inline]
    fn certainly_beyond(legs: &[f64], theta: f64) -> bool {
        let path: f64 = legs.iter().sum();
        legs.iter().any(|&leg| leg - (path - leg) > theta + EPS)
    }

    #[inline]
    fn verify(
        a: &OrderedRanking,
        b: &OrderedRanking,
        theta: f64,
        counts: &mut KernelCounts,
    ) -> Option<f64> {
        within(a, b, theta, counts)
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
    let within = move |a: &Ranking, b: &Ranking| jaccard_within(a, b, theta).is_some();
    Ok(all_pairs(cluster, &[left, right], "jaccard-bf-rs", within))
}

/// CL under Jaccard distance: cluster at θc, join centroids at
/// `min(θ + 2θc, 1)`, expand with (ε-guarded) triangle bounds — the shared
/// CL driver in the Jaccard space.
pub fn jaccard_cl_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    jaccard_cl_flavour(cluster, data, config, config.skew)
}

/// CL-P for sets: the CL pipeline with Algorithm-3 repartitioning of the
/// centroid join's posting lists at `config.partition_threshold`.
pub fn jaccard_clp_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
) -> Result<JoinOutcome, JoinError> {
    let delta = SkewBudget::Fixed(config.partition_threshold);
    jaccard_cl_flavour(cluster, data, config, delta)
}

/// Config → the two spaces → [`cl_flavour`]. CL and CL-P share the label:
/// they differ only in the centroid join's budget, `joining`.
fn jaccard_cl_flavour(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JaccardConfig,
    joining: SkewBudget,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    cl_flavour(
        cluster,
        data,
        PrefixKind::Overlap,
        config.partitions,
        config.skew,
        "jaccard-cl",
        |k| ClPlan {
            clustering: Jaccard::uniform(k, config.cluster_threshold),
            centroids: Jaccard::centroids(k, config.theta, config.cluster_threshold),
            joining,
            theta: config.theta,
            use_triangle_bounds: true,
        },
    )
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
    crate::pipeline::uniform_k(data)?;
    Ok(all_pairs(cluster, &[data], "jaccard-bf", move |a, b| {
        jaccard_within(a, b, theta).is_some()
    }))
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

    /// `c` = {1..5}; `m4` shares four items with it (d = 1/3), `m3` three
    /// (d = 4/7), `m4` and `m3` share three (d = 4/7); `z` is disjoint from
    /// all. At θc = 0.6 both are within θc of `c` (and `m3` of `m4`), and
    /// `c`, the smallest id, is the home of both: one cluster.
    fn boundary_sets() -> Vec<Ranking> {
        [
            (1, [1, 2, 3, 4, 5]),
            (2, [1, 2, 3, 4, 6]),
            (3, [1, 2, 3, 7, 8]),
            (4, [11, 12, 13, 14, 15]),
        ]
        .into_iter()
        .map(|(id, items)| Ranking::new(id, items.to_vec()).unwrap())
        .collect()
    }

    #[test]
    fn triangle_guard_verifies_at_the_exact_f64_boundary() {
        // The legs through `c` are exactly (1/3, 4/7). At θ = their sum the
        // upper bound *equals* θ, at θ = their difference the lower bound
        // does: with rounding in play neither may decide — the pair must be
        // verified — while a hair away from the edge both bounds do decide.
        let (d4, d3) = (2.0 / 6.0, 4.0 / 7.0);
        let (sum, diff) = (d4 + d3, d3 - d4);
        assert!(!Jaccard::certainly_within(&[d4, d3], sum));
        assert!(Jaccard::certainly_within(&[d4, d3], sum + 1e-6));
        assert!(!Jaccard::certainly_beyond(&[d4, d3], diff));
        assert!(Jaccard::certainly_beyond(&[d4, d3], diff - 1e-6));

        let c = cluster();
        let data = boundary_sets();
        for theta in [sum, diff] {
            let cfg = JaccardConfig::new(theta).with_cluster_threshold(0.6);
            let outcome = jaccard_cl_join(&c, &data, &cfg).unwrap();
            let expected = jaccard_brute_force(&c, &data, theta).unwrap().pairs;
            assert_eq!(outcome.pairs, expected, "θ = {theta}");
            assert_eq!(outcome.stats.clusters, 1, "θ = {theta}");
            // Every member pair of this corpus sits on (or inside) the
            // guard band: nothing is decided by the triangle bounds.
            assert_eq!(outcome.stats.triangle_accepted, 0, "θ = {theta}");
            assert_eq!(outcome.stats.triangle_pruned, 0, "θ = {theta}");
            assert!(outcome.stats.verified > 0, "θ = {theta}");
        }
        // At θ = 1/3 + 4/7 the three overlapping sets all pair up; at
        // θ = 4/7 − 1/3 nothing is close enough.
        let at = |theta| jaccard_brute_force(&c, &data, theta).unwrap().pairs;
        assert_eq!(at(sum), vec![(1, 2), (1, 3), (2, 3)]);
        assert!(at(diff).is_empty());
    }
}
