//! Invariance tests: the result set must not depend on any tuning knob —
//! partition counts, node counts, δ, θc, prefix flavour, position filter.
//! (Performance depends on all of them; correctness on none.)

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::unwrap_used)]

use minispark::{Cluster, ClusterConfig, SkewBudget};
use topk_datagen::CorpusProfile;
use topk_rankings::{PrefixKind, Ranking};
use topk_simjoin::{
    jaccard_vj_join, jaccard_vj_join_rs, varlen_join, varlen_join_rs, vj_join, vj_join_rs,
    vj_nl_join, vj_nl_join_rs, Algorithm, JaccardConfig, JoinConfig,
};

fn corpus() -> Vec<Ranking> {
    CorpusProfile::orku_like(350, 10).generate()
}

fn reference(data: &[Ranking], theta: f64) -> Vec<(u64, u64)> {
    let cluster = Cluster::new(ClusterConfig::local(4));
    Algorithm::BruteForce
        .run(&cluster, data, &JoinConfig::new(theta))
        .unwrap()
        .pairs
}

#[test]
fn invariant_to_partition_count() {
    let data = corpus();
    let expected = reference(&data, 0.25);
    for partitions in [1, 2, 7, 86, 286] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.25).with_partitions(partitions);
        for algo in [Algorithm::Vj, Algorithm::Cl] {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(
                got,
                expected,
                "{} with {partitions} partitions",
                algo.name()
            );
        }
    }
}

#[test]
fn invariant_to_node_count() {
    let data = corpus();
    let expected = reference(&data, 0.25);
    for nodes in [1, 2, 4, 8] {
        let cluster =
            Cluster::new(ClusterConfig::paper_scalability(nodes).with_default_partitions(24));
        let got = Algorithm::ClP
            .run(
                &cluster,
                &data,
                &JoinConfig::new(0.25).with_partition_threshold(25),
            )
            .unwrap()
            .pairs;
        assert_eq!(got, expected, "{nodes} nodes");
    }
}

#[test]
fn invariant_to_partitioning_threshold() {
    let data = corpus();
    let expected = reference(&data, 0.3);
    for delta in [1, 3, 10, 40, 200, 1_000_000] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.3).with_partition_threshold(delta);
        let got = Algorithm::ClP.run(&cluster, &data, &config).unwrap().pairs;
        assert_eq!(got, expected, "δ = {delta}");
    }
}

#[test]
fn invariant_to_clustering_threshold() {
    let data = corpus();
    let expected = reference(&data, 0.3);
    for theta_c in [0.0, 0.01, 0.02, 0.03, 0.05, 0.1] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.3)
            .with_cluster_threshold(theta_c)
            .with_partition_threshold(30);
        for algo in [Algorithm::Cl, Algorithm::ClP] {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(got, expected, "{} with θc = {theta_c}", algo.name());
        }
    }
}

#[test]
fn invariant_to_prefix_kind() {
    let data = corpus();
    let expected = reference(&data, 0.2);
    for prefix in [
        PrefixKind::Weighted,
        PrefixKind::Overlap,
        PrefixKind::Ordered,
    ] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.2).with_prefix(prefix);
        for algo in [Algorithm::Vj, Algorithm::VjNl, Algorithm::Cl] {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(got, expected, "{} with {prefix:?}", algo.name());
        }
    }
}

#[test]
fn invariant_to_position_filter() {
    let data = corpus();
    let expected = reference(&data, 0.1);
    for enabled in [true, false] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.1).with_position_filter(enabled);
        for algo in Algorithm::paper_lineup() {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(got, expected, "{} position_filter = {enabled}", algo.name());
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let data = corpus();
    let cluster = Cluster::new(ClusterConfig::local(8));
    let config = JoinConfig::new(0.3).with_partition_threshold(20);
    let first = Algorithm::ClP.run(&cluster, &data, &config).unwrap().pairs;
    for _ in 0..3 {
        let again = Algorithm::ClP.run(&cluster, &data, &config).unwrap().pairs;
        assert_eq!(again, first);
    }
}

#[test]
fn invariant_to_ablation_flags() {
    // Disabling the triangle bounds or Lemma 5.3 changes work, not results.
    let data = corpus();
    let expected = reference(&data, 0.3);
    for (triangle, lemma53) in [(false, true), (true, false), (false, false)] {
        let cluster = Cluster::new(ClusterConfig::local(4));
        let config = JoinConfig::new(0.3)
            .with_triangle_bounds(triangle)
            .with_lemma53(lemma53)
            .with_partition_threshold(30);
        for algo in [Algorithm::Cl, Algorithm::ClP] {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(
                got,
                expected,
                "{} triangle={triangle} lemma53={lemma53}",
                algo.name()
            );
        }
    }
}

#[test]
fn ablations_change_the_work_profile() {
    let data = corpus();
    let cluster = Cluster::new(ClusterConfig::local(4));
    let with = Algorithm::Cl
        .run(&cluster, &data, &JoinConfig::new(0.3))
        .unwrap();
    let without = Algorithm::Cl
        .run(
            &cluster,
            &data,
            &JoinConfig::new(0.3).with_triangle_bounds(false),
        )
        .unwrap();
    assert_eq!(with.pairs, without.pairs);
    assert_eq!(without.stats.triangle_accepted, 0);
    assert_eq!(without.stats.triangle_pruned, 0);
    assert!(without.stats.verified >= with.stats.verified);
}

type Pairs = Vec<(u64, u64)>;

/// One flat join family: its self-join and its R-S twin under a skew policy.
#[allow(clippy::type_complexity)]
struct Family<'a> {
    name: &'a str,
    self_join: &'a dyn Fn(&[Ranking], SkewBudget) -> Pairs,
    rs_join: &'a dyn Fn(&[Ranking], &[Ranking], SkewBudget) -> Pairs,
}

/// The orku-like corpus cut to k ∈ {5, 8, 10}: cross-length near-duplicates.
fn mixed_length_corpus() -> Vec<Ranking> {
    corpus()
        .iter()
        .enumerate()
        .map(|(i, r)| Ranking::new_unchecked(r.id(), r.items()[..[5, 8, 10][i % 3]].to_vec()))
        .collect()
}

#[test]
fn self_join_is_the_one_relation_case_of_the_rs_join() {
    let c = Cluster::new(ClusterConfig::local(4));
    let footrule = |skew| JoinConfig::new(0.25).with_skew(skew);
    let jaccard = |skew| JaccardConfig::new(0.4).with_skew(skew);
    let families = [
        Family {
            name: "vj",
            self_join: &|d, s| vj_join(&c, d, &footrule(s)).unwrap().pairs,
            rs_join: &|l, r, s| vj_join_rs(&c, l, r, &footrule(s)).unwrap().pairs,
        },
        Family {
            name: "vj-nl",
            self_join: &|d, s| vj_nl_join(&c, d, &footrule(s)).unwrap().pairs,
            rs_join: &|l, r, s| vj_nl_join_rs(&c, l, r, &footrule(s)).unwrap().pairs,
        },
        Family {
            name: "jaccard-vj",
            self_join: &|d, s| jaccard_vj_join(&c, d, &jaccard(s)).unwrap().pairs,
            rs_join: &|l, r, s| jaccard_vj_join_rs(&c, l, r, &jaccard(s)).unwrap().pairs,
        },
        Family {
            name: "varlen",
            self_join: &|d, s| varlen_join(&c, d, 15, 0, s).unwrap().pairs,
            rs_join: &|l, r, s| varlen_join_rs(&c, l, r, 15, 0, s).unwrap().pairs,
        },
    ];
    for family in &families {
        let data = if family.name == "varlen" {
            mixed_length_corpus()
        } else {
            corpus()
        };
        // Two relations with overlapping id spaces, and their disjoint union
        // re-keyed the way `cl_join_rs` does: left block first.
        let (left, right) = data.split_at(data.len() / 2);
        let rekey = |rs: &[Ranking], from: u64| -> Vec<Ranking> {
            (from..)
                .zip(rs)
                .map(|(id, r)| Ranking::new_unchecked(id, r.items().to_vec()))
                .collect()
        };
        let right = rekey(right, 0);
        let boundary = left.len() as u64;
        let union: Vec<Ranking> = [rekey(left, 0), rekey(&right, boundary)].concat();

        for skew in [SkewBudget::Off, SkewBudget::Fixed(3)] {
            let tag = format!("{} under {skew:?}", family.name);
            let expected = (family.self_join)(&data, skew);
            assert!(!expected.is_empty(), "{tag}: vacuous corpus");

            // R ⋈ R minus the diagonal, folded to a < b, is the self-join.
            let mut folded: Pairs = (family.rs_join)(&data, &data, skew)
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            folded.sort_unstable();
            folded.dedup();
            assert_eq!(folded, expected, "{tag}: R ⋈ R vs self-join");

            // R ⋈ S is the cross-relation part of the self-join of R ⊎ S.
            let mut cross: Pairs = (family.self_join)(&union, skew)
                .into_iter()
                .filter(|&(a, b)| a < boundary && b >= boundary)
                .map(|(a, b)| (left[a as usize].id(), right[(b - boundary) as usize].id()))
                .collect();
            cross.sort_unstable();
            let got = (family.rs_join)(left, &right, skew);
            assert!(!got.is_empty(), "{tag}: vacuous relations");
            assert_eq!(got, cross, "{tag}: R ⋈ S vs self-join of R ⊎ S");
        }
    }
}
