//! Schedule-independence property suite — the determinism checker's entry
//! point for the paper's join kernels (ISSUE 3, satellite 3).
//!
//! For each driver — VJ, VJ-NL, CL, CL-P, the Jaccard variants and the
//! variable-length join — the same seed and configuration is run under task
//! slot counts `{1, 2, 4, 7}` and eight deterministic schedules (plus the
//! real thread pool as the reference), and every run must produce the
//! bit-identical sorted pair set and stable stage-count metrics. A parallel
//! all-pairs similarity join is only correct if its output is partition-
//! and interleaving-independent; this suite is the executable form of that
//! claim.
//!
//! Deliberately not a seeded case loop: the schedule space is explored by
//! `minispark::check::schedule_matrix` from fixed seeds, so failures replay
//! exactly (`Schedule::Seeded(n)` in the error names the schedule).

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::panic)]

use minispark::{check_determinism, schedule_matrix, Cluster, ClusterConfig, Schedule};
use topk_datagen::{CorpusProfile, Rng};
use topk_rankings::Ranking;
use topk_simjoin::{
    clp_join, jaccard_cl_join, jaccard_clp_join, jaccard_vj_join, varlen_join, Algorithm,
    JaccardConfig, JoinConfig, SkewBudget,
};

const SLOT_COUNTS: [usize; 4] = [1, 2, 4, 7];
const SCHEDULE_SEED: u64 = 0x70_4B_52_4A; // "topk-rank-join"

fn schedules() -> Vec<Schedule> {
    let m = schedule_matrix(8, SCHEDULE_SEED);
    assert_eq!(m.len(), 8, "the issue asks for 8 random schedules");
    m
}

/// A small corpus of length-`k` rankings over a narrow token universe, a
/// quarter of them near-duplicates of earlier ones, so clusters and result
/// pairs exist.
fn corpus(n: usize, k: usize, universe: u32, seed: u64) -> Vec<Ranking> {
    CorpusProfile {
        name: "determinism".into(),
        num_records: n,
        vocab_size: universe,
        zipf_skew: 0.8,
        k,
        near_dup_rate: 0.25,
        seed,
    }
    .generate()
}

/// Mixed-length rankings for the variable-length driver.
fn varlen_corpus(n: u64, universe: u32, seed: u64) -> Vec<Ranking> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Vec::new();
    for id in 0..n {
        let k = rng.gen_range(4usize..=7);
        data.push(Ranking::new(id, rng.distinct(universe, k)).expect("distinct items"));
    }
    data
}

/// The base cluster configuration: partition counts are pinned so stage
/// shapes do not vary with the probed slot count.
fn base_config() -> ClusterConfig {
    ClusterConfig::local(2).with_default_partitions(5)
}

/// Runs one footrule algorithm through the determinism checker.
fn assert_footrule_deterministic(algo: Algorithm) {
    assert_footrule_deterministic_with_skew(algo, SkewBudget::Off);
}

/// Like [`assert_footrule_deterministic`] but with a skew policy. Only
/// `SkewBudget::Off` and `Fixed` keep the stage shape slot-independent
/// (`Auto` derives its budget from the probed slot count), so those are the
/// policies this suite may explore.
fn assert_footrule_deterministic_with_skew(algo: Algorithm, skew: SkewBudget) {
    let data = corpus(48, 7, 40, 0xD5EED);
    let config = JoinConfig::new(0.35)
        .with_cluster_threshold(0.05)
        .with_partition_threshold(6)
        .with_skew(skew);
    let schedules = schedules();
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules, |cluster| {
        let out = algo
            .run(cluster, &data, &config)
            .expect("join must succeed");
        out.pairs
    })
    .unwrap_or_else(|failure| panic!("{} is schedule-dependent: {failure}", algo.name()));
    assert_eq!(
        outcome.runs,
        SLOT_COUNTS.len() * (schedules.len() + 1),
        "each slot count runs the thread pool plus every schedule"
    );
    assert!(
        !outcome.reference.is_empty(),
        "{}: the corpus is built to produce result pairs — an empty \
         reference would make this test vacuous",
        algo.name()
    );
}

#[test]
fn vj_is_schedule_independent() {
    assert_footrule_deterministic(Algorithm::Vj);
}

#[test]
fn vj_nl_is_schedule_independent() {
    assert_footrule_deterministic(Algorithm::VjNl);
}

#[test]
fn cl_is_schedule_independent() {
    assert_footrule_deterministic(Algorithm::Cl);
}

#[test]
fn cl_p_is_schedule_independent() {
    assert_footrule_deterministic(Algorithm::ClP);
}

#[test]
fn vj_with_skew_splitting_is_schedule_independent() {
    // A fixed split budget routes hot groups through the join-unit spread
    // and join stage, whose chunks and chunk pairs must keep exactly the
    // pairs their group owns under every schedule; the stage-metrics
    // fingerprint must not drift.
    assert_footrule_deterministic_with_skew(Algorithm::Vj, SkewBudget::Fixed(4));
}

#[test]
fn vj_nl_with_skew_splitting_is_schedule_independent() {
    assert_footrule_deterministic_with_skew(Algorithm::VjNl, SkewBudget::Fixed(3));
}

#[test]
fn cl_with_skew_splitting_is_schedule_independent() {
    // CL threads the budget through both the θc clustering self-join (its
    // `cl/cluster/homes` reducer) and the centroid join.
    assert_footrule_deterministic_with_skew(Algorithm::Cl, SkewBudget::Fixed(4));
}

#[test]
fn jaccard_vj_is_schedule_independent() {
    let data = corpus(48, 6, 32, 0x1ACCA);
    let config = JaccardConfig::new(0.5).with_cluster_threshold(0.1);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        jaccard_vj_join(cluster, &data, &config)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("jaccard VJ is schedule-dependent: {failure}"));
    assert!(!outcome.reference.is_empty());
}

#[test]
fn jaccard_cl_is_schedule_independent() {
    // CL is one driver body shared with Footrule: the Jaccard space's pairs
    // *and* its counters must come out of it identically under every
    // schedule, on a timeline labelled `jaccard-cl`.
    let data = corpus(48, 6, 32, 0x1ACCB);
    let config = JaccardConfig::new(0.5).with_cluster_threshold(0.1);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        let outcome = jaccard_cl_join(cluster, &data, &config).expect("join must succeed");
        let trace = cluster.trace().snapshot();
        assert!(trace.phases().any(|p| p.name == "jaccard-cl/run"));
        // No δ and no skew budget: nothing splits, so no counter is
        // timing-dependent.
        (outcome.pairs, outcome.stats)
    })
    .unwrap_or_else(|failure| panic!("jaccard CL is schedule-dependent: {failure}"));
    let (pairs, stats) = outcome.reference;
    assert!(!pairs.is_empty());
    assert!(stats.candidates > 0 && stats.singletons > 0);
}

#[test]
fn jaccard_cl_p_is_schedule_independent() {
    let data = corpus(48, 6, 32, 0x1ACCB);
    let config = JaccardConfig::new(0.5)
        .with_cluster_threshold(0.1)
        .with_partition_threshold(6);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        jaccard_clp_join(cluster, &data, &config)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("jaccard CL-P is schedule-dependent: {failure}"));
    assert!(!outcome.reference.is_empty());
}

#[test]
fn jaccard_vj_with_skew_splitting_is_schedule_independent() {
    // Split Jaccard groups: each chunk and chunk pair keeps the pairs its
    // group owns, under every schedule.
    let data = corpus(48, 6, 32, 0x1ACCA);
    let config = JaccardConfig::new(0.5)
        .with_cluster_threshold(0.1)
        .with_skew(SkewBudget::Fixed(4));
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        jaccard_vj_join(cluster, &data, &config)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("jaccard VJ with skew is schedule-dependent: {failure}"));
    assert!(!outcome.reference.is_empty());
}

#[test]
fn varlen_with_skew_splitting_is_schedule_independent() {
    let data = varlen_corpus(48, 28, 0x7A51);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        varlen_join(cluster, &data, 30, 5, SkewBudget::Fixed(3))
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("varlen join with skew is schedule-dependent: {failure}"));
    assert!(!outcome.reference.is_empty());
}

#[test]
fn varlen_is_schedule_independent() {
    let data = varlen_corpus(48, 28, 0x7A51);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        varlen_join(cluster, &data, 30, 5, SkewBudget::Off)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("varlen join is schedule-dependent: {failure}"));
    assert!(!outcome.reference.is_empty());
}

/// Every stage row's record counts of one run: name, records in and out,
/// records shuffled and the largest partition.
fn stage_counts(cluster: &Cluster) -> Vec<(String, usize, usize, usize, usize)> {
    cluster
        .metrics()
        .stages
        .iter()
        .map(|s| {
            let counts = (s.input_records, s.output_records, s.shuffle_records);
            (
                s.name.clone(),
                counts.0,
                counts.1,
                counts.2,
                s.max_partition_records,
            )
        })
        .collect()
}

/// A δ-split CL-P run records the same per-stage record counts every time —
/// on one slot, on several and under a seeded schedule — split stages
/// included.
#[test]
fn cl_p_split_stage_rows_repeat_run_to_run() {
    let data = corpus(400, 7, 40, 0xD5EED);
    let config = JoinConfig::new(0.35)
        .with_cluster_threshold(0.05)
        .with_partition_threshold(6);
    let run = |config_of: ClusterConfig| {
        let cluster = Cluster::new(config_of);
        let out = clp_join(&cluster, &data, &config).expect("uniform corpus");
        assert!(
            out.stats.posting_lists_split > 0,
            "δ = 6 must split a group"
        );
        (out.pairs, stage_counts(&cluster))
    };
    let reference = run(base_config());
    assert!(
        reference
            .1
            .iter()
            .any(|row| row.0.ends_with("/join-chunks")),
        "the split path did not run"
    );
    for config_of in [
        base_config(),
        ClusterConfig::local(1).with_default_partitions(5),
        base_config().with_schedule(Schedule::Seeded(7)),
    ] {
        assert_eq!(run(config_of), reference);
    }
}
