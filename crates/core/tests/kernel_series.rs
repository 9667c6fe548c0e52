//! The live per-driver join series.
//!
//! Every driver publishes its finished `StatsSnapshot` once, under its own
//! stage label (`StatsSnapshot::publish`), so each
//! `simjoin_<field>_total{driver=label}` must equal the run's field exactly —
//! for the flat joins, the R-S joins, CL, CL-P and the Jaccard CL alike, the
//! counters booked outside the grouped joins (clustering, expansion, skew
//! splits) included. Each driver also names the counters its run must move
//! and the phase spans it must record, so an equality between two zeros
//! never passes for a check.
//!
//! The CL drivers' stage shape is pinned too: expansion is one narrow stage
//! over a broadcast cluster table, and `clp_join` records a fixed list of
//! stage names with a fixed number of shuffles. Names and counts only: the
//! per-stage record counts of a δ-split run vary from run to run.

use minispark::telemetry::SampleValue;
use minispark::{Cluster, ClusterConfig, SkewBudget, TraceCollector};
use topk_datagen::CorpusProfile;
use topk_simjoin::{
    cl_join, cl_join_rs, clp_join, jaccard_cl_join, jaccard_clp_join, jaccard_vj_join,
    jaccard_vj_join_rs, varlen_join, varlen_join_rs, vj_join, vj_join_rs, vj_nl_join,
    vj_nl_join_rs, vj_repartitioned_join, JaccardConfig, JoinConfig, JoinOutcome,
};

/// The phase spans of the flat drivers (`run_prefix_join`).
const FLAT: &[&str] = &["run", "phase/ordering", "phase/joining"];
/// The phase spans of the CL drivers (`cl_flavour`).
const CL: &[&str] = &[
    "run",
    "phase/ordering",
    "phase/clustering",
    "phase/joining",
    "phase/expansion",
];
/// Fields every run must move.
const JOINED: &[&str] = &["candidates", "verified", "result_pairs"];
/// The position and overlap filters: runs over rankings, not sets.
const POSITIONAL: &[&str] = &["position_pruned", "overlap_pruned"];
/// The clustering and the expansion's triangle bounds.
const CLUSTERED: &[&str] = &["clusters", "singletons", "triangle_accepted"];
/// CL-P's and VJ-P's posting-list repartitioning at δ.
const SPLIT: &[&str] = &["posting_lists_split", "rs_joins", "skew_chunks"];

#[test]
fn every_driver_publishes_its_stats_under_its_own_label() {
    let cluster = Cluster::with_trace(
        ClusterConfig::local(2).with_telemetry(),
        TraceCollector::enabled(),
    );
    let data = CorpusProfile::orku_like(300, 10).generate();
    let (left, right) = data.split_at(150);
    // θ = 0.1 keeps the position filter active (see vj.rs); δ = 3 makes
    // every `-p` driver split posting lists (δ = 10 splits none here).
    let footrule = JoinConfig::new(0.1).with_partition_threshold(3);
    let jaccard = JaccardConfig::new(0.4).with_partition_threshold(3);

    type Join<'a> = &'a dyn Fn() -> JoinOutcome;
    type Names = &'static [&'static str];
    // (label, run, phase spans, field groups the run must move)
    let drivers: [(&str, Join, Names, &[Names]); 14] = [
        (
            "vj",
            &|| vj_join(&cluster, &data, &footrule).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
        (
            "vj-nl",
            &|| vj_nl_join(&cluster, &data, &footrule).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
        (
            "vj-rs",
            &|| vj_join_rs(&cluster, left, right, &footrule).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
        (
            "vj-nl-rs",
            &|| vj_nl_join_rs(&cluster, left, right, &footrule).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
        (
            "vj-p",
            &|| vj_repartitioned_join(&cluster, &data, &footrule).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL, SPLIT],
        ),
        (
            "cl",
            &|| cl_join(&cluster, &data, &footrule).unwrap(),
            CL,
            &[JOINED, POSITIONAL, CLUSTERED],
        ),
        (
            "cl-p",
            &|| clp_join(&cluster, &data, &footrule).unwrap(),
            CL,
            &[JOINED, POSITIONAL, CLUSTERED, SPLIT],
        ),
        (
            "cl-rs",
            &|| cl_join_rs(&cluster, left, right, &footrule).unwrap(),
            CL,
            &[JOINED, POSITIONAL, CLUSTERED],
        ),
        (
            "jaccard-vj",
            &|| jaccard_vj_join(&cluster, &data, &jaccard).unwrap(),
            FLAT,
            &[JOINED],
        ),
        (
            "jaccard-vj-rs",
            &|| jaccard_vj_join_rs(&cluster, left, right, &jaccard).unwrap(),
            FLAT,
            &[JOINED],
        ),
        // Jaccard CL and CL-P share their label: they differ in δ only.
        (
            "jaccard-cl",
            &|| jaccard_cl_join(&cluster, &data, &jaccard).unwrap(),
            CL,
            &[JOINED, CLUSTERED],
        ),
        (
            "jaccard-cl",
            &|| jaccard_clp_join(&cluster, &data, &jaccard).unwrap(),
            CL,
            &[JOINED, CLUSTERED, SPLIT],
        ),
        (
            "varlen",
            &|| varlen_join(&cluster, &data, 11, 0, SkewBudget::Off).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
        (
            "varlen-rs",
            &|| varlen_join_rs(&cluster, left, right, 11, 0, SkewBudget::Off).unwrap(),
            FLAT,
            &[JOINED, POSITIONAL],
        ),
    ];

    for (driver, join, spans, moved) in drivers {
        // Twice on the same cluster: the reset in between is the run
        // boundary, so the second run's series must not carry the first's.
        for run in 0..2 {
            cluster.reset_metrics();
            let stats = join().stats;
            let fields = stats.fields();
            for name in moved.iter().copied().flatten() {
                let value = fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
                assert!(
                    value.is_some_and(|v| v > 0),
                    "{driver}: {name} idle ({stats})"
                );
            }
            let series: Vec<(String, u64)> = cluster
                .telemetry()
                .snapshot()
                .metrics
                .into_iter()
                .filter(|m| m.name.starts_with("simjoin_"))
                .filter_map(|m| match m.value {
                    SampleValue::Counter(v) => Some((m.series(), v)),
                    _ => None,
                })
                .collect();
            for (name, expected) in fields {
                let key = format!("simjoin_{name}_total{{driver=\"{driver}\"}}");
                let live = series.iter().find(|(s, _)| *s == key).map(|&(_, v)| v);
                assert_eq!(live, Some(expected), "{driver} run {run}: {key}");
            }
            // Nothing moved under any other label (CL-P is not `cl`).
            let label = format!("{{driver=\"{driver}\"}}");
            for (s, v) in &series {
                assert!(*v == 0 || s.ends_with(&label), "{driver}: {s} = {v}");
            }
            let trace = cluster.trace().snapshot();
            for span in spans {
                assert!(
                    trace.phases().any(|p| p.name == format!("{driver}/{span}")),
                    "{driver}/{span} span missing"
                );
            }
            if spans == CL {
                // Stage names carry the space's prefix, not the driver's.
                let space = if driver.starts_with("jaccard") {
                    "jaccard-cl"
                } else {
                    "cl"
                };
                let expand: Vec<(String, usize)> = cluster
                    .metrics()
                    .stages
                    .into_iter()
                    .filter(|s| s.name.contains("/expand/"))
                    .map(|s| (s.name, s.shuffle_records))
                    .collect();
                assert_eq!(
                    expand,
                    [(format!("{space}/expand/member-pairs"), 0)],
                    "{driver}: expansion is one narrow stage"
                );
            }
        }
    }
}

/// `clp_join`'s stages, in order: ordering, the θc clustering join and the
/// cluster table, the δ-split centroid join, and one expansion stage.
const CLP_STAGES: [&str; 21] = [
    "cl-p/freq-emit",
    "cl-p/order-by-frequency",
    "cl/cluster/emit-prefixes",
    "cl/cluster/group-by-token",
    "cl/cluster/join-groups",
    "cl/cluster/home-candidates",
    "cl/cluster/homes",
    "cl/cluster/member-assignments",
    "cl/cluster/form-clusters",
    "cl/cluster/cluster-rows",
    "cl/cluster/centroid-rankings",
    "cl/cluster/singletons",
    "cl/cluster/within-cluster-results",
    "cl/join/emit-cm-prefixes",
    "cl/join/emit-cs-prefixes",
    "cl/join/group-by-token",
    "cl/join/join-small-groups",
    "cl/join/split-large-groups",
    "cl/join/spread-chunks",
    "cl/join/join-chunks",
    "cl/expand/member-pairs",
];

/// The stages of `CLP_STAGES` that shuffle: the two token groupings, the
/// homes and the cluster rows, and the spread of the split groups' chunks.
const CLP_SHUFFLES: usize = 5;

#[test]
fn clp_join_records_its_pinned_stage_shape() {
    let cluster = Cluster::new(ClusterConfig::local(2));
    let data = CorpusProfile::orku_like(300, 10).generate();
    let config = JoinConfig::new(0.1).with_partition_threshold(3);
    let outcome = clp_join(&cluster, &data, &config).unwrap();
    assert!(outcome.stats.posting_lists_split > 0, "δ = 3 must split");
    let stages = cluster.metrics().stages;
    let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, CLP_STAGES);
    let shuffles = stages.iter().filter(|s| s.shuffle_records > 0).count();
    assert_eq!(shuffles, CLP_SHUFFLES);
}
