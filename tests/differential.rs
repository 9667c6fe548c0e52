//! The differential matrix: every join driver against its own space's brute
//! force, over seeded samples of corpus × k × θ (on and next to the raw and
//! the `(k − o)(k − o + 1)` overlap boundaries) × θc × Footrule prefix kind
//! × task slots × skew policy × spill budget × task schedule.
//!
//! Each driver must return exactly the brute-force pair set, strictly
//! increasing (so no pair twice), and the flat drivers must also book one
//! `result_pairs` per returned pair and keep the funnel identity
//! `candidates == position_pruned + overlap_pruned + verified`. A failing case prints its seed (through
//! `rng::check`) and the sampled configuration; replay it with
//! `Rng::seed_from_u64(seed)`.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use minispark::{Cluster, ClusterConfig, Schedule, SkewBudget};
use topk_datagen::rng::{check, Rng};
use topk_datagen::CorpusProfile;
use topk_rankings::distance::raw_threshold;
use topk_rankings::{max_raw_distance, PrefixKind, Ranking};
use topk_simjoin::{
    brute_force_join, brute_force_join_rs, cl_join, cl_join_rs, clp_join, jaccard_brute_force,
    jaccard_brute_force_rs, jaccard_cl_join, jaccard_clp_join, jaccard_vj_join, jaccard_vj_join_rs,
    varlen_brute_force, varlen_brute_force_rs, varlen_join, varlen_join_rs, vj_join, vj_join_rs,
    vj_nl_join, vj_repartitioned_join, ArrivalJoin, JaccardConfig, JoinConfig, JoinOutcome,
    RankingIndex,
};

/// Sampled configurations. Sized so the whole matrix stays well under 30 s
/// in a debug `cargo test` on a 2-vCPU machine.
const CASES: u64 = 96;

/// Which corpus a case joins.
#[derive(Debug, Clone, Copy)]
enum Corpus {
    Dblp,
    Orku,
    /// Disjoint near-duplicate chains `x0 < x1 < …` whose consecutive
    /// members are one step apart and whose distance grows along the chain,
    /// so at the chain's step distance `x1` is a member of `x0`'s cluster
    /// and the pivot of `x2`'s.
    Chains,
}

/// One sampled point of the matrix.
#[derive(Debug)]
struct Case {
    corpus: Corpus,
    n: usize,
    k: usize,
    /// Footrule θ, normalized, landing exactly on `theta_raw`.
    theta: f64,
    theta_raw: u64,
    /// Footrule θc, normalized.
    theta_c: f64,
    /// The prefix every Footrule batch driver emits: the default weighted
    /// prefix, the paper's count prefix or Lemma 4.1's.
    prefix: PrefixKind,
    /// Jaccard θ and θc.
    jaccard_theta: f64,
    jaccard_theta_c: f64,
    slots: usize,
    skew: SkewBudget,
    /// CL-P's and VJ-P's δ.
    delta: usize,
    spill_budget: usize,
    schedule: u64,
    /// Whether the right relation of the R-S joins reuses the left's ids.
    overlapping_ids: bool,
}

fn chains(rng: &mut Rng, n: usize, k: usize) -> Vec<Ranking> {
    let mut out = Vec::with_capacity(n);
    let mut chain = 0u32;
    while out.len() < n {
        // Chain `chain` draws from its own 2k items, so chains never meet.
        let width = u32::try_from(2 * k).expect("small k");
        let base = chain * width;
        let mut pool: Vec<u32> = (base..base + width).collect();
        rng.shuffle(&mut pool);
        let (mut items, spare) = (pool[..k].to_vec(), pool[k..].to_vec());
        // Swap steps move Footrule by 2 each (and Jaccard not at all);
        // replacement steps move Jaccard by one item each.
        let swaps = chain.is_multiple_of(2);
        let steps = if swaps { k / 2 } else { k };
        let len = rng.gen_range(3..=steps.clamp(3, 5));
        for step in 0..len {
            if out.len() == n {
                break;
            }
            if step > 0 {
                let j = step - 1;
                if swaps {
                    items.swap(2 * j, 2 * j + 1);
                } else {
                    items[j] = spare[j];
                }
            }
            let id = u64::try_from(out.len()).expect("small n");
            out.push(Ranking::new_unchecked(id, items.clone()));
        }
        chain += 1;
    }
    out
}

fn corpus(case: &Case, rng: &mut Rng) -> Vec<Ranking> {
    let seed = rng.next_u64();
    match case.corpus {
        Corpus::Dblp => CorpusProfile::dblp_like(case.n, case.k)
            .with_seed(seed)
            .generate(),
        Corpus::Orku => CorpusProfile::orku_like(case.n, case.k)
            .with_seed(seed)
            .generate(),
        Corpus::Chains => chains(rng, case.n, case.k),
    }
}

fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// A raw Footrule threshold on or next to a boundary: any raw distance, or
/// the overlap bound `(k − o)(k − o + 1)` of some overlap `o`, ± 1.
fn raw_theta(rng: &mut Rng, k: usize) -> u64 {
    let max = max_raw_distance(k);
    let boundary = if rng.gen_bool(0.5) {
        let gap = u64::try_from(k - rng.gen_range(0..=k)).expect("small k");
        gap * (gap + 1)
    } else {
        rng.gen_range(0..=max)
    };
    match rng.gen_range(0..3u8) {
        0 => boundary.saturating_sub(1),
        1 => boundary,
        _ => (boundary + 1).min(max),
    }
}

/// The four θc regimes relative to θ: none, the data's step distance,
/// `θc < θ < 2θc`, and `θc ≥ θ`.
fn cluster_threshold(rng: &mut Rng, theta: f64, step: f64) -> f64 {
    match rng.gen_range(0..4u8) {
        0 => 0.0,
        1 => step,
        2 if theta > 0.0 => theta * (0.5 + 0.5 * rng.gen_f64()),
        2 => step,
        _ => (theta + (1.0 - theta) * 0.5 * rng.gen_f64()).min(1.0),
    }
}

/// The Jaccard distance `(2k − 2o)/(2k − o)` of two k-sets sharing `o`
/// items, possibly nudged just off it.
fn jaccard_theta(rng: &mut Rng, k: usize) -> f64 {
    let o = rng.gen_range(0..=k);
    let on = (2 * k - 2 * o) as f64 / (2 * k - o) as f64;
    match rng.gen_range(0..3u8) {
        0 => (on - 1e-12).max(0.0),
        1 => on,
        _ => (on + 1e-12).min(1.0),
    }
}

fn sample(rng: &mut Rng) -> Case {
    let corpus = pick(rng, &[Corpus::Dblp, Corpus::Orku, Corpus::Chains]);
    let k = pick(rng, &[5usize, 10]);
    let theta_raw = raw_theta(rng, k);
    let theta = theta_raw as f64 / max_raw_distance(k) as f64;
    // One swap step is raw 2; a raw 3 θc lands between two boundaries.
    let footrule_step = rng.gen_range(2..=3u64) as f64 / max_raw_distance(k) as f64;
    let theta_c = cluster_threshold(rng, theta, footrule_step);
    let jaccard_theta = jaccard_theta(rng, k);
    let jaccard_step = 2.0 / (k + 1) as f64;
    let jaccard_theta_c = cluster_threshold(rng, jaccard_theta, jaccard_step);
    let delta = rng.gen_range(1..=8usize);
    let prefix = pick(
        rng,
        &[
            PrefixKind::Weighted,
            PrefixKind::Overlap,
            PrefixKind::Ordered,
        ],
    );
    Case {
        corpus,
        n: rng.gen_range(30..=75),
        k,
        theta,
        theta_raw,
        theta_c,
        prefix,
        jaccard_theta,
        jaccard_theta_c,
        slots: rng.gen_range(1..=2),
        skew: pick(
            rng,
            &[SkewBudget::Off, SkewBudget::Fixed(delta), SkewBudget::Auto],
        ),
        delta,
        spill_budget: pick(rng, &[3, usize::MAX]),
        schedule: rng.next_u64(),
        overlapping_ids: rng.gen_bool(0.5),
    }
}

fn cluster(case: &Case) -> Cluster {
    Cluster::new(
        ClusterConfig::local(case.slots)
            .with_default_partitions(4)
            .with_spill_budget(case.spill_budget)
            .with_schedule(Schedule::Seeded(case.schedule)),
    )
}

/// Checks one driver's pairs: strictly increasing and equal to `expected`.
/// A flat driver also books exactly one `result_pairs` per pair, and every
/// candidate it counts leaves the filter funnel exactly once.
fn agree(driver: &str, case: &Case, got: &JoinOutcome, expected: &[(u64, u64)], flat: bool) {
    assert!(
        got.pairs.windows(2).all(|w| w[0] < w[1]),
        "{driver}: pairs not strictly increasing\n{case:#?}"
    );
    assert_eq!(got.pairs, expected, "{driver} ≠ brute force\n{case:#?}");
    if flat {
        let s = &got.stats;
        assert_eq!(
            s.result_pairs,
            got.pairs.len() as u64,
            "{driver}: result_pairs ≠ pairs\n{case:#?}"
        );
        assert_eq!(
            s.candidates,
            s.position_pruned + s.overlap_pruned + s.verified,
            "{driver}: a candidate left the funnel uncounted\n{case:#?}"
        );
    }
}

/// Splits `data` into an R-S pair; the right side is re-keyed from 0 when
/// the case asks for overlapping id spaces.
fn split(case: &Case, data: &[Ranking]) -> (Vec<Ranking>, Vec<Ranking>) {
    let mid = data.len() / 2;
    let left = data[..mid].to_vec();
    let right = data[mid..]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = if case.overlapping_ids {
                u64::try_from(i).expect("small n")
            } else {
                r.id()
            };
            Ranking::new_unchecked(id, r.items().to_vec())
        })
        .collect();
    (left, right)
}

/// Truncates some rankings to shorter lengths, for the variable-length join.
fn mixed_lengths(rng: &mut Rng, data: &[Ranking]) -> Vec<Ranking> {
    data.iter()
        .map(|r| {
            let len = rng.gen_range(r.k().div_ceil(2)..=r.k());
            Ranking::new_unchecked(r.id(), r.items()[..len].to_vec())
        })
        .collect()
}

fn footrule_drivers(case: &Case, data: &[Ranking]) {
    let c = cluster(case);
    let config = JoinConfig::new(case.theta)
        .with_cluster_threshold(case.theta_c)
        .with_partition_threshold(case.delta)
        .with_skew(case.skew)
        .with_prefix(case.prefix);
    assert_eq!(raw_threshold(case.k, case.theta), case.theta_raw);
    let expected = brute_force_join(&c, data, case.theta).unwrap().pairs;
    agree(
        "vj",
        case,
        &vj_join(&c, data, &config).unwrap(),
        &expected,
        true,
    );
    agree(
        "vj-nl",
        case,
        &vj_nl_join(&c, data, &config).unwrap(),
        &expected,
        true,
    );
    let vjp = vj_repartitioned_join(&c, data, &config).unwrap();
    agree("vj-p", case, &vjp, &expected, true);
    agree(
        "cl",
        case,
        &cl_join(&c, data, &config).unwrap(),
        &expected,
        false,
    );
    agree(
        "cl-p",
        case,
        &clp_join(&c, data, &config).unwrap(),
        &expected,
        false,
    );

    let (left, right) = split(case, data);
    let expected_rs = brute_force_join_rs(&c, &left, &right, case.theta)
        .unwrap()
        .pairs;
    let vj_rs = vj_join_rs(&c, &left, &right, &config).unwrap();
    agree("vj-rs", case, &vj_rs, &expected_rs, true);
    let cl_rs = cl_join_rs(&c, &left, &right, &config).unwrap();
    agree("cl-rs", case, &cl_rs, &expected_rs, false);
}

fn jaccard_drivers(case: &Case, data: &[Ranking]) {
    let c = cluster(case);
    let config = JaccardConfig::new(case.jaccard_theta)
        .with_cluster_threshold(case.jaccard_theta_c)
        .with_partition_threshold(case.delta)
        .with_skew(case.skew);
    let theta = case.jaccard_theta;
    let expected = jaccard_brute_force(&c, data, theta).unwrap().pairs;
    let vj = jaccard_vj_join(&c, data, &config).unwrap();
    agree("jaccard-vj", case, &vj, &expected, true);
    let cl = jaccard_cl_join(&c, data, &config).unwrap();
    agree("jaccard-cl", case, &cl, &expected, false);
    let clp = jaccard_clp_join(&c, data, &config).unwrap();
    agree("jaccard-cl-p", case, &clp, &expected, false);

    let (left, right) = split(case, data);
    let expected_rs = jaccard_brute_force_rs(&c, &left, &right, theta)
        .unwrap()
        .pairs;
    let vj_rs = jaccard_vj_join_rs(&c, &left, &right, &config).unwrap();
    agree("jaccard-vj-rs", case, &vj_rs, &expected_rs, true);
}

fn varlen_drivers(case: &Case, data: &[Ranking], rng: &mut Rng) {
    let c = cluster(case);
    let data = mixed_lengths(rng, data);
    let (theta_raw, skew) = (case.theta_raw, case.skew);
    let expected = varlen_brute_force(&c, &data, theta_raw).unwrap().pairs;
    let got = varlen_join(&c, &data, theta_raw, 0, skew).unwrap();
    agree("varlen", case, &got, &expected, true);

    let (left, right) = split(case, &data);
    let expected_rs = varlen_brute_force_rs(&c, &left, &right, theta_raw)
        .unwrap()
        .pairs;
    let got = varlen_join_rs(&c, &left, &right, theta_raw, 0, skew).unwrap();
    agree("varlen-rs", case, &got, &expected_rs, true);
}

/// The streaming and index paths: arrivals after a standing corpus find
/// exactly the pairs that involve an arrival, and a range query over every
/// record finds exactly its brute-force neighbours.
fn index_drivers(case: &Case, data: &[Ranking], rng: &mut Rng) {
    let c = cluster(case);
    let expected = brute_force_join(&c, data, case.theta).unwrap().pairs;

    let standing = rng.gen_range(0..=data.len());
    let mut arrivals = ArrivalJoin::new(&data[..standing], case.theta).unwrap();
    let mut got = Vec::new();
    let mut rest = &data[standing..];
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(7)));
        got.extend(arrivals.join_arrivals(batch).unwrap().pairs);
        rest = tail;
    }
    // Each batch is sorted; across batches, a pair twice would show here.
    got.sort_unstable();
    let outcome = JoinOutcome {
        stats: arrivals.stats(),
        pairs: got,
        elapsed: std::time::Duration::ZERO,
    };
    let standing_ids = u64::try_from(standing).expect("small n");
    let involving_arrivals: Vec<(u64, u64)> = expected
        .iter()
        .copied()
        .filter(|&(_, b)| b >= standing_ids)
        .collect();
    agree("arrivals", case, &outcome, &involving_arrivals, true);

    let mut symmetric: Vec<(u64, u64)> = expected
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    symmetric.sort_unstable();
    // Stored prefixes sized for θ itself, for a larger threshold, and for
    // θ = 1, where every record is also posted under the sentinel that a
    // query below 1 does not probe.
    for theta_max in [case.theta, (case.theta + 0.1).min(1.0), 1.0] {
        let index = RankingIndex::build(data, theta_max).unwrap();
        let mut pairs = Vec::new();
        for query in data {
            let neighbours = index.range_query(query, case.theta).unwrap();
            pairs.extend(neighbours.into_iter().map(|(id, _)| (query.id(), id)));
        }
        pairs.sort_unstable();
        let outcome = JoinOutcome {
            pairs,
            ..JoinOutcome::empty(std::time::Duration::ZERO)
        };
        agree(
            &format!("range-query, theta_max = {theta_max}"),
            case,
            &outcome,
            &symmetric,
            false,
        );
    }
}

#[test]
fn every_driver_matches_its_brute_force() {
    check("every_driver_matches_its_brute_force", CASES, |rng| {
        let case = sample(rng);
        let data = corpus(&case, rng);
        footrule_drivers(&case, &data);
        jaccard_drivers(&case, &data);
        varlen_drivers(&case, &data, rng);
        index_drivers(&case, &data, rng);
    });
}

/// The chain corpus really holds pivots that are not their own home: at
/// the step distance, `x1` is within θc of `x0` and of `x2`, while `x2` is
/// not within θc of `x0`.
#[test]
fn chains_hold_pivots_that_are_not_their_own_home() {
    let mut rng = Rng::seed_from_u64(1);
    let data = chains(&mut rng, 40, 10);
    let (x0, x1, x2) = (&data[0], &data[1], &data[2]);
    let footrule = |a: &Ranking, b: &Ranking| topk_rankings::footrule_raw(a, b);
    assert_eq!(
        (footrule(x0, x1), footrule(x1, x2), footrule(x0, x2)),
        (2, 2, 4)
    );
    // The second chain steps by replacement: one item per step.
    let second = data
        .iter()
        .position(|r| r.items().iter().all(|&i| i >= 20))
        .unwrap();
    let (y0, y1, y2) = (&data[second], &data[second + 1], &data[second + 2]);
    assert_eq!((y0.overlap(y1), y1.overlap(y2), y0.overlap(y2)), (9, 9, 8));
}
