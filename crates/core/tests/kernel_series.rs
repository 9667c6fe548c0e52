//! The live per-driver kernel series.
//!
//! `pipeline::token_grouped_join` owns the
//! `simjoin_kernel_{groups,candidates,verified,pruned,overlap_pruned}_total{driver=…}`
//! counters, so every driver that rides it — Footrule, Jaccard,
//! variable-length — publishes them. For a flat join the grouped join is the
//! only place that touches `JoinStats`, so the series must equal the run's
//! final stats; CL-P's clustering and expansion phases bump the same stats
//! outside the grouped join, so there the series is a non-zero lower bound —
//! except where the triangle bounds decide every such candidate, as in the
//! Jaccard CL case below.

use minispark::{Cluster, ClusterConfig, TraceCollector};
use topk_datagen::CorpusProfile;
use topk_rankings::Ranking;
use topk_simjoin::{
    clp_join, jaccard_cl_join, jaccard_vj_join, varlen_join, vj_join, JaccardConfig, JoinConfig,
    JoinOutcome,
};

fn series(cluster: &Cluster, name: &str, driver: &str) -> u64 {
    cluster
        .telemetry()
        .counter_with(name, &[("driver", driver)])
        .get()
}

#[test]
fn kernel_series_cover_every_driver() {
    let cluster = Cluster::with_trace(
        ClusterConfig::local(2).with_telemetry(),
        TraceCollector::enabled(),
    );
    let data = CorpusProfile::orku_like(300, 10).generate();
    // θ = 0.1 keeps the position filter active (see vj.rs), so the pruned
    // series is exercised too.
    let footrule = JoinConfig::new(0.1).with_partition_threshold(10);
    let jaccard = JaccardConfig::new(0.4);

    type Join<'a> = &'a dyn Fn(&[Ranking]) -> JoinOutcome;
    let flat: [(&str, Join); 3] = [
        ("vj", &|d| vj_join(&cluster, d, &footrule).unwrap()),
        ("jaccard-vj", &|d| {
            jaccard_vj_join(&cluster, d, &jaccard).unwrap()
        }),
        ("varlen", &|d| varlen_join(&cluster, d, 11, 0).unwrap()),
    ];
    for (driver, join) in flat {
        // Twice on the same cluster: the reset in between is the run
        // boundary, so the second run's series must not carry the first's.
        for run in 0..2 {
            cluster.reset_metrics();
            let stats = join(&data).stats;
            assert!(stats.candidates > 0, "{driver}: vacuous run");
            if driver != "jaccard-vj" {
                // Sets carry no positions; the other two must exercise the
                // pruned series with a non-zero value.
                assert!(stats.position_pruned > 0, "{driver}: nothing pruned");
                assert!(stats.overlap_pruned > 0, "{driver}: overlap filter idle");
            }
            for (name, expected) in [
                ("simjoin_kernel_candidates_total", stats.candidates),
                ("simjoin_kernel_verified_total", stats.verified),
                ("simjoin_kernel_pruned_total", stats.position_pruned),
                ("simjoin_kernel_overlap_pruned_total", stats.overlap_pruned),
                ("simjoin_result_pairs_total", stats.result_pairs),
            ] {
                assert_eq!(
                    series(&cluster, name, driver),
                    expected,
                    "{driver} run {run}: {name}"
                );
            }
            assert!(series(&cluster, "simjoin_kernel_groups_total", driver) > 0);
            let trace = cluster.trace().snapshot();
            for span in ["run", "phase/ordering", "phase/joining"] {
                assert!(
                    trace.phases().any(|p| p.name == format!("{driver}/{span}")),
                    "{driver}/{span} span missing"
                );
            }
        }
    }

    cluster.reset_metrics();
    let stats = clp_join(&cluster, &data, &footrule).unwrap().stats;
    for (name, total) in [
        ("simjoin_kernel_candidates_total", stats.candidates),
        ("simjoin_kernel_verified_total", stats.verified),
        ("simjoin_kernel_pruned_total", stats.position_pruned),
        ("simjoin_kernel_overlap_pruned_total", stats.overlap_pruned),
    ] {
        let live = series(&cluster, name, "cl");
        assert!(
            live > 0 && live <= total,
            "cl-p: {name} = {live} of {total}"
        );
    }

    // Jaccard CL rides the one CL driver under its own label, through both
    // of its grouped joins (clustering, centroids). With θc = 0.05 on 10-sets
    // a cluster's members are set-duplicates of their centroid (the next
    // distance up is 2/11), so the triangle bounds decide every candidate of
    // the clustering and expansion phases: only the grouped joins verify,
    // and the series equal the final stats here too.
    cluster.reset_metrics();
    let stats = jaccard_cl_join(&cluster, &data, &jaccard).unwrap().stats;
    assert!(stats.candidates > 0, "jaccard-cl: vacuous run");
    assert!(stats.clusters > 0, "jaccard-cl: no clusters");
    assert!(
        stats.triangle_accepted + stats.triangle_pruned > 0,
        "jaccard-cl: the expansion decided nothing"
    );
    for (name, expected) in [
        ("simjoin_kernel_candidates_total", stats.candidates),
        ("simjoin_kernel_verified_total", stats.verified),
        ("simjoin_kernel_pruned_total", stats.position_pruned),
        ("simjoin_kernel_overlap_pruned_total", stats.overlap_pruned),
        ("simjoin_result_pairs_total", stats.result_pairs),
    ] {
        assert_eq!(
            series(&cluster, name, "jaccard-cl"),
            expected,
            "jaccard-cl: {name}"
        );
    }
    let trace = cluster.trace().snapshot();
    for span in [
        "run",
        "phase/ordering",
        "phase/clustering",
        "phase/joining",
        "phase/expansion",
        "phase/dedup",
    ] {
        assert!(
            trace
                .phases()
                .any(|p| p.name == format!("jaccard-cl/{span}")),
            "jaccard-cl/{span} span missing"
        );
    }
}
