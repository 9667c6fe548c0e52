//! Schedule-independence property suite for the two-relation (R-S) join
//! entry points (ISSUE 9, satellite 4).
//!
//! Every R-S driver — VJ, VJ-NL, CL, the Jaccard variant and the
//! variable-length join — is run under task slot counts `{1, 2, 4, 7}` and
//! eight deterministic schedules (plus the real thread pool as reference),
//! and every run must produce the bit-identical sorted pair set. The
//! reference pair set is additionally checked against the bipartite
//! nested-loop baseline, on relations whose id spaces deliberately
//! *overlap* — the regression the self-join-only drivers could never
//! exercise. A skew-budget invariance test on a Zipf-hot R-S dataset
//! closes the loop: `Off`, `Auto` and `Fixed` must agree pairwise even
//! when hot token groups are split into R-S chunk pairs.
//!
//! Deliberately not a seeded case loop: the schedule space is explored by
//! `minispark::check::schedule_matrix` from fixed seeds, so failures replay
//! exactly (`Schedule::Seeded(n)` in the error names the schedule).

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::panic)]

use minispark::{check_determinism, schedule_matrix, Cluster, ClusterConfig, Schedule};
use topk_datagen::Rng;
use topk_rankings::Ranking;
use topk_simjoin::{
    brute_force_join_rs, cl_join_rs, jaccard_brute_force_rs, jaccard_vj_join_rs,
    varlen_brute_force_rs, varlen_join_rs, vj_join_rs, vj_nl_join_rs, JaccardConfig, JoinConfig,
    SkewBudget,
};

const SLOT_COUNTS: [usize; 4] = [1, 2, 4, 7];
const SCHEDULE_SEED: u64 = 0x70_4B_52_53; // "topk-rank-RS"

fn schedules() -> Vec<Schedule> {
    let m = schedule_matrix(8, SCHEDULE_SEED);
    assert_eq!(m.len(), 8, "the issue asks for 8 random schedules");
    m
}

/// A corpus of length-`k` rankings over a narrow token universe, with ids
/// starting at 0 — both relations use 0-based ids, so their id spaces
/// overlap by construction.
fn corpus(n: u64, k: usize, universe: u32, seed: u64) -> Vec<Ranking> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Vec::new();
    for id in 0..n {
        data.push(Ranking::new(id, rng.distinct(universe, k)).expect("distinct items"));
    }
    data
}

/// Mixed-length rankings (lengths 4..=7) for the variable-length driver.
fn varlen_corpus(n: u64, universe: u32, seed: u64) -> Vec<Ranking> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Vec::new();
    for id in 0..n {
        let k = rng.gen_range(4usize..=7);
        data.push(Ranking::new(id, rng.distinct(universe, k)).expect("distinct items"));
    }
    data
}

/// A Zipf-hot corpus: one token opens (almost) every ranking, so its
/// posting list dwarfs the rest and the skew subsystem has a genuinely hot
/// group to split into R-S chunk pairs.
fn zipf_hot_corpus(n: u64, k: usize, universe: u32, seed: u64) -> Vec<Ranking> {
    const HOT_TOKEN: u32 = 0;
    let mut rng = Rng::seed_from_u64(seed);
    let mut data = Vec::new();
    for id in 0..n {
        // Nine out of ten rankings lead with the hot token.
        let mut items = if id % 10 != 9 {
            vec![HOT_TOKEN]
        } else {
            Vec::new()
        };
        let cold = rng.distinct(universe - 1, k - items.len());
        items.extend(cold.into_iter().map(|tok| tok + 1));
        data.push(Ranking::new(id, items).expect("distinct items by construction"));
    }
    data
}

/// The base cluster configuration: partition counts are pinned so stage
/// shapes do not vary with the probed slot count.
fn base_config() -> ClusterConfig {
    ClusterConfig::local(2).with_default_partitions(5)
}

fn reference_cluster() -> Cluster {
    Cluster::new(base_config())
}

/// The two overlapping-id footrule relations every footrule R-S test uses.
/// The right relation perturbs a subset of the left (one adjacent swap per
/// ranking), so near-duplicates — and hence cross pairs — exist by
/// construction; both sides carry ids 0, 1, 2, … and duplicate tokens
/// across relations abound.
fn footrule_relations() -> (Vec<Ranking>, Vec<Ranking>) {
    let left = corpus(48, 7, 40, 0xD5EED);
    let mut rng = Rng::seed_from_u64(0xBEEF);
    let right: Vec<Ranking> = left
        .iter()
        .take(36)
        .map(|r| {
            let mut items = r.items().to_vec();
            let i = rng.gen_range(0..items.len() - 1);
            items.swap(i, i + 1);
            Ranking::new(r.id(), items).expect("a swap keeps items distinct")
        })
        .collect();
    (left, right)
}

/// Runs one footrule R-S driver through the determinism checker and checks
/// its reference pair set against the bipartite nested-loop baseline.
fn assert_rs_deterministic(
    name: &str,
    skew: SkewBudget,
    driver: impl Fn(
        &Cluster,
        &[Ranking],
        &[Ranking],
        &JoinConfig,
    ) -> Result<topk_simjoin::JoinOutcome, topk_simjoin::JoinError>,
) {
    let (left, right) = footrule_relations();
    let config = JoinConfig::new(0.35)
        .with_cluster_threshold(0.05)
        .with_partition_threshold(6)
        .with_skew(skew);
    let schedules = schedules();
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules, |cluster| {
        driver(cluster, &left, &right, &config)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("{name} is schedule-dependent: {failure}"));
    assert_eq!(
        outcome.runs,
        SLOT_COUNTS.len() * (schedules.len() + 1),
        "each slot count runs the thread pool plus every schedule"
    );
    let expected = brute_force_join_rs(&reference_cluster(), &left, &right, config.theta)
        .expect("baseline must succeed")
        .pairs;
    assert_eq!(
        outcome.reference, expected,
        "{name} disagrees with the bipartite nested-loop baseline"
    );
    assert!(
        !expected.is_empty(),
        "{name}: the corpora are built to produce cross pairs — an empty \
         reference would make this test vacuous"
    );
}

#[test]
fn vj_rs_is_schedule_independent_and_matches_the_baseline() {
    assert_rs_deterministic("VJ-RS", SkewBudget::Off, vj_join_rs);
}

#[test]
fn vj_nl_rs_is_schedule_independent_and_matches_the_baseline() {
    assert_rs_deterministic("VJ-NL-RS", SkewBudget::Off, vj_nl_join_rs);
}

#[test]
fn cl_rs_is_schedule_independent_and_matches_the_baseline() {
    assert_rs_deterministic("CL-RS", SkewBudget::Off, cl_join_rs);
}

#[test]
fn vj_rs_with_skew_splitting_is_schedule_independent() {
    // A fixed budget routes hot token groups through the join-unit stages,
    // whose R-S chunk pairs must keep exactly the pairs their group owns
    // under every schedule. (`Auto` derives its budget from the probed slot count, so
    // only `Off`/`Fixed` may enter the determinism checker.)
    assert_rs_deterministic("VJ-RS (skew)", SkewBudget::Fixed(3), vj_join_rs);
}

#[test]
fn jaccard_rs_is_schedule_independent_and_matches_the_baseline() {
    let left = corpus(48, 6, 32, 0x1ACCA);
    let right = corpus(36, 6, 32, 0x1ACCB);
    let config = JaccardConfig::new(0.5).with_cluster_threshold(0.1);
    let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
        jaccard_vj_join_rs(cluster, &left, &right, &config)
            .expect("join must succeed")
            .pairs
    })
    .unwrap_or_else(|failure| panic!("jaccard VJ-RS is schedule-dependent: {failure}"));
    let expected = jaccard_brute_force_rs(&reference_cluster(), &left, &right, config.theta)
        .expect("baseline must succeed")
        .pairs;
    assert_eq!(outcome.reference, expected);
    assert!(!expected.is_empty());
}

#[test]
fn varlen_rs_is_schedule_independent_and_matches_the_baseline() {
    let left = varlen_corpus(48, 28, 0x7A51);
    let right = varlen_corpus(36, 28, 0x7A52);
    for skew in [SkewBudget::Off, SkewBudget::Fixed(3)] {
        let outcome = check_determinism(&base_config(), &SLOT_COUNTS, &schedules(), |cluster| {
            varlen_join_rs(cluster, &left, &right, 30, 5, skew)
                .expect("join must succeed")
                .pairs
        })
        .unwrap_or_else(|failure| panic!("varlen R-S ({skew:?}) is schedule-dependent: {failure}"));
        let expected = varlen_brute_force_rs(&reference_cluster(), &left, &right, 30)
            .expect("baseline must succeed")
            .pairs;
        assert_eq!(outcome.reference, expected, "{skew:?}");
        assert!(!expected.is_empty());
    }
}

#[test]
fn rs_skew_budgets_agree_on_a_zipf_hot_dataset() {
    // Off/Auto/Fixed must produce the identical pair set even when the hot
    // token's bipartite group is split into R-S chunk pairs. `Auto` is
    // slot-count-dependent, so this runs on one fixed cluster rather than
    // through the determinism checker.
    let left = zipf_hot_corpus(60, 7, 30, 0x21BF);
    let right = zipf_hot_corpus(45, 7, 30, 0x21C0);
    let cluster = reference_cluster();
    let expected = brute_force_join_rs(&cluster, &left, &right, 0.35)
        .expect("baseline must succeed")
        .pairs;
    assert!(!expected.is_empty(), "hot corpora must produce cross pairs");
    let mut split_seen = false;
    for skew in [SkewBudget::Off, SkewBudget::Auto, SkewBudget::Fixed(1)] {
        let config = JoinConfig::new(0.35)
            .with_partition_threshold(6)
            .with_skew(skew);
        for (name, driver) in [
            ("VJ-RS", vj_join_rs as fn(_, _, _, _) -> _),
            ("VJ-NL-RS", vj_nl_join_rs),
            ("CL-RS", cl_join_rs),
        ] {
            let outcome = driver(&cluster, &left, &right, &config).expect("join must succeed");
            assert_eq!(outcome.pairs, expected, "{name} under {skew:?}");
            split_seen |= outcome.stats.posting_lists_split > 0;
        }
    }
    assert!(
        split_seen,
        "a Zipf-hot dataset under SkewBudget::Fixed(1) must actually split \
         a posting list — otherwise this test never exercises the R-S \
         chunk-pair path"
    );
}
