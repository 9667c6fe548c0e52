//! The Vernica-Join adaptation to top-k rankings (§4), in three flavours:
//!
//! * [`vj_join`] — VJ,
//! * [`vj_nl_join`] — VJ-NL, iterator nested-loop verification (§4.1),
//! * [`vj_repartitioned_join`] — VJ-NL plus Algorithm 3's splitting of
//!   oversized posting lists (the joining machinery CL-P adds on top of CL;
//!   exposed standalone for ablation benchmarks).
//!
//! VJ and VJ-NL run the same code here. The paper's VJ probes a group-local
//! inverted index, but every entry of token t's group has t in its prefix,
//! so the probe reaches the whole group: it verifies exactly VJ-NL's
//! candidates and only adds the index's cost. Both names stay, as the
//! paper's Fig. 6 compares them.
//!
//! All of them — and their R-S twins, and the Jaccard and variable-length
//! flat joins — are `run_prefix_join` with a different `JoinSpace` and a
//! different number of relations.

use std::sync::Arc;
use std::time::Instant;

use minispark::{Cluster, SkewBudget};
use topk_rankings::distance::raw_threshold;
use topk_rankings::{PrefixKind, Ranking};

use crate::config::{effective_partitions, validate_skew};
use crate::kernels::{Footrule, JoinSpace, TokenEntry};
use crate::pipeline::{order_relations, prefix_hits, uniform_k_of};
use crate::stats::JoinStats;
use crate::{JoinConfig, JoinError, JoinOutcome};

/// The one flat prefix-join driver: Ordering → Joining over one relation (a
/// self-join, pairs `(a, b)` with `a < b`) or two (an R-S join, pairs
/// `(left id, right id)` — the id spaces may overlap, so no ordering is
/// implied), sorted. Every pair comes out of its one owning token group, so
/// there is nothing to deduplicate.
///
/// `space_for` validates the input and builds the join's space; `Ok(None)`
/// is an input with no possible result (an empty relation). `partitions = 0`
/// takes the cluster default; `skew` decides whether hot token groups split.
pub(crate) fn run_prefix_join<S: JoinSpace>(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    prefix_kind: PrefixKind,
    partitions: usize,
    skew: SkewBudget,
    label: &str,
    space_for: impl FnOnce() -> Result<Option<S>, JoinError>,
) -> Result<JoinOutcome, JoinError> {
    validate_skew(skew)?;
    let start = Instant::now();
    let Some(space) = space_for()? else {
        return Ok(JoinOutcome::empty(start.elapsed()));
    };
    let partitions = effective_partitions(partitions, cluster.config().default_partitions);
    let stats = Arc::new(JoinStats::default());

    // Phase spans label the Ordering → Joining pipeline on the trace
    // timeline (no-ops unless the cluster records a trace).
    let run_span = cluster.trace().span(format!("{label}/run"));
    let sources = {
        let _phase = cluster.trace().span(format!("{label}/phase/ordering"));
        order_relations(cluster, relations, prefix_kind, partitions, label)
    };
    let mut pairs = {
        let _phase = cluster.trace().span(format!("{label}/phase/joining"));
        // The id pair is the output (hits lead with the left record, so it
        // is unambiguous even when the id spaces of two relations overlap):
        // nothing else needs to leave the kernels.
        let ids = |a: &TokenEntry, b: &TokenEntry, _| (a.ranking.id(), b.ranking.id());
        prefix_hits(&sources, &space, partitions, skew, &stats, label, ids).collect()
    };
    pairs.sort_unstable();
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "{label}: a pair came out of more than one token group"
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

/// The Footrule flat join under `skew`: `config.skew`, or VJ-P's
/// `Fixed(partition_threshold)`.
fn vj_flavour(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    config: &JoinConfig,
    skew: SkewBudget,
    label: &str,
) -> Result<JoinOutcome, JoinError> {
    config.validate()?;
    let space_for = || {
        Ok(uniform_k_of(relations)?.map(|k| {
            let theta_raw = raw_threshold(k, config.theta);
            Footrule::uniform(k, theta_raw, config.prefix, config.use_position_filter)
        }))
    };
    run_prefix_join(
        cluster,
        relations,
        config.prefix,
        config.partitions,
        skew,
        label,
        space_for,
    )
}

/// VJ: prefix filtering per token group (§4). The same join as
/// [`vj_nl_join`] (see the module docs), under its own stage labels.
pub fn vj_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    vj_flavour(cluster, &[data], config, config.skew, "vj")
}

/// VJ-NL: prefix filtering with nested-loop (iterator) verification (§4.1).
pub fn vj_nl_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    vj_flavour(cluster, &[data], config, config.skew, "vj-nl")
}

/// VJ over two relations (R-S join): both relations' prefixes shuffle into
/// one token-grouped bipartite join; only cross-relation pairs are verified.
/// Output pairs are `(left id, right id)`, sorted — the two id spaces may
/// overlap, so no `a < b` ordering is implied. The same join as
/// [`vj_nl_join_rs`].
pub fn vj_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    vj_flavour(cluster, &[left, right], config, config.skew, "vj-rs")
}

/// VJ-NL over two relations (R-S join), nested-loop verification per group.
/// Output pairs are `(left id, right id)`, sorted.
pub fn vj_nl_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    vj_flavour(cluster, &[left, right], config, config.skew, "vj-nl-rs")
}

/// VJ-NL with repartitioning of posting lists longer than the configured
/// `partition_threshold` δ (Algorithm 3) — the standalone version of CL-P's
/// joining machinery.
pub fn vj_repartitioned_join(
    cluster: &Cluster,
    data: &[Ranking],
    config: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    let delta = SkewBudget::Fixed(config.partition_threshold);
    vj_flavour(cluster, &[data], config, delta, "vj-p")
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
        CorpusProfile::dblp_like(300, 10).generate()
    }

    #[test]
    fn vj_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        for theta in [0.1, 0.3] {
            let expected = brute_force_join(&c, &data, theta).unwrap().pairs;
            let got = vj_join(&c, &data, &JoinConfig::new(theta)).unwrap().pairs;
            assert_eq!(got, expected, "θ = {theta}");
        }
    }

    #[test]
    fn vj_nl_matches_brute_force() {
        let c = cluster();
        let data = corpus();
        let expected = brute_force_join(&c, &data, 0.3).unwrap().pairs;
        let got = vj_nl_join(&c, &data, &JoinConfig::new(0.3)).unwrap().pairs;
        assert_eq!(got, expected);
    }

    #[test]
    fn repartitioned_result_is_invariant_to_delta() {
        let c = cluster();
        let data = corpus();
        let expected = brute_force_join(&c, &data, 0.3).unwrap().pairs;
        for delta in [1, 5, 50, 10_000] {
            let cfg = JoinConfig::new(0.3).with_partition_threshold(delta);
            let got = vj_repartitioned_join(&c, &data, &cfg).unwrap().pairs;
            assert_eq!(got, expected, "δ = {delta}");
        }
    }

    #[test]
    fn repartitioning_actually_splits_lists() {
        let c = cluster();
        let data = corpus();
        let cfg = JoinConfig::new(0.3).with_partition_threshold(5);
        let outcome = vj_repartitioned_join(&c, &data, &cfg).unwrap();
        assert!(outcome.stats.posting_lists_split > 0);
        assert!(outcome.stats.rs_joins > 0);
    }

    #[test]
    fn fixed_skew_budget_never_changes_the_result_set() {
        // Splitting + stealing must be invisible in the output, for any
        // budget, on both drivers.
        use minispark::SkewBudget;
        let c = cluster();
        let data = corpus();
        let expected = vj_join(&c, &data, &JoinConfig::new(0.3)).unwrap().pairs;
        for budget in [1usize, 2, 3, 7, 64, 100_000] {
            for nested_loop in [false, true] {
                let cfg = JoinConfig::new(0.3).with_skew(SkewBudget::Fixed(budget));
                let outcome = if nested_loop {
                    vj_nl_join(&c, &data, &cfg).unwrap()
                } else {
                    vj_join(&c, &data, &cfg).unwrap()
                };
                assert_eq!(
                    outcome.pairs, expected,
                    "budget = {budget}, nested_loop = {nested_loop}"
                );
                if budget <= 3 {
                    // Small budgets must actually split and chunk.
                    assert!(outcome.stats.posting_lists_split > 0, "budget = {budget}");
                    assert!(outcome.stats.skew_chunks > 0, "budget = {budget}");
                }
            }
        }
    }

    #[test]
    fn auto_skew_budget_splits_hot_groups_without_changing_results() {
        // A corpus where every ranking leads with hot item 1: under the
        // rank-ordered prefix the token-1 posting list holds the whole
        // corpus, while per-family tokens form hundreds of tiny groups —
        // exactly the shape `SkewBudget::Auto`'s group sizes must reveal.
        use minispark::SkewBudget;
        use topk_rankings::PrefixKind;
        let data: Vec<Ranking> = (0..240u64)
            .map(|i| {
                let family = (i / 2) as u32;
                let mut items: Vec<u32> = vec![1];
                items.extend((0..9).map(|j| 10 + family * 9 + j));
                if i % 2 == 1 {
                    items.swap(1, 2); // near-duplicate of its even sibling
                }
                Ranking::new(i, items).unwrap()
            })
            .collect();
        let c = cluster();
        let base = JoinConfig::new(0.1).with_prefix(PrefixKind::Ordered);
        let off = vj_join(&c, &data, &base).unwrap();
        let auto = vj_join(&c, &data, &base.clone().with_skew(SkewBudget::Auto)).unwrap();
        assert_eq!(auto.pairs, off.pairs);
        assert!(
            !auto.pairs.is_empty(),
            "sibling pairs are within θ by construction"
        );
        assert_eq!(off.stats.skew_chunks, 0, "Off must never split");
        assert!(
            auto.stats.posting_lists_split > 0,
            "Auto must split the hot token-1 group: {:?}",
            auto.stats
        );
        assert!(
            auto.stats.skew_chunks > auto.stats.posting_lists_split,
            "every split group makes at least two chunks: {:?}",
            auto.stats
        );
    }

    #[test]
    fn position_filter_changes_work_but_not_results() {
        let c = cluster();
        let data = corpus();
        // The filter prunes on a shared-item rank difference > θ_raw / 2;
        // for k = 10 that bound is below the maximum possible difference
        // (k − 1 = 9) only for θ < 2/(k+1) ≈ 0.18, so test at θ = 0.1.
        let with = vj_nl_join(&c, &data, &JoinConfig::new(0.1)).unwrap();
        let without =
            vj_nl_join(&c, &data, &JoinConfig::new(0.1).with_position_filter(false)).unwrap();
        assert_eq!(with.pairs, without.pairs);
        assert!(with.stats.position_pruned > 0);
        // What the position filter takes never reaches the later stages
        // (most of it the overlap filter would have caught: the merge itself
        // may see the same pairs either way).
        let past_position = |s: &crate::StatsSnapshot| s.overlap_pruned + s.verified;
        assert_eq!(
            past_position(&with.stats) + with.stats.position_pruned,
            past_position(&without.stats)
        );
        assert!(with.stats.verified <= without.stats.verified);
    }

    #[test]
    fn ordered_prefix_matches_overlap_prefix() {
        use topk_rankings::PrefixKind;
        let c = cluster();
        let data = corpus();
        let overlap = vj_nl_join(&c, &data, &JoinConfig::new(0.2)).unwrap();
        let ordered = vj_nl_join(
            &c,
            &data,
            &JoinConfig::new(0.2).with_prefix(PrefixKind::Ordered),
        )
        .unwrap();
        assert_eq!(overlap.pairs, ordered.pairs);
    }

    #[test]
    fn empty_dataset() {
        let c = cluster();
        let outcome = vj_join(&c, &[], &JoinConfig::new(0.3)).unwrap();
        assert!(outcome.pairs.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let c = cluster();
        let data = corpus();
        let outcome = vj_join(&c, &data, &JoinConfig::new(0.3)).unwrap();
        assert!(outcome.stats.candidates > 0);
        assert!(outcome.stats.verified > 0);
        // Each pair is counted once, in the group that owns it.
        assert_eq!(outcome.stats.result_pairs as usize, outcome.pairs.len());
    }
}
