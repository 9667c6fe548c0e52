//! Property-based tests for the metric and the pruning bounds.
//!
//! These are the load-bearing guarantees of the whole system: the clustering
//! algorithm (CL/CL-P) is only correct because the Footrule adaptation is a
//! metric, and the prefix/position filters are only admissible because they
//! never prune a true result.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

use topk_datagen::rng::{check, Rng};
use topk_rankings::bounds::{
    lower_bound_disjoint_prefix, min_distance_given_overlap, min_overlap, ordered_prefix_len,
    overlap_prefix_len, position_filter_prunes, weighted_prefix_len,
};
use topk_rankings::distance::{
    footrule_norm, footrule_pairs, footrule_pairs_within, footrule_raw, footrule_sorted_within,
    footrule_within, kendall_tau_topk, max_raw_distance, raw_threshold,
};
use topk_rankings::ordered::{FrequencyTable, ItemBits, OrderedRanking};
use topk_rankings::verify::{verify_candidate, Verification};
use topk_rankings::Ranking;

/// Cases per property.
const CASES: u64 = 256;

/// A top-k ranking with `k` distinct items drawn from a small universe
/// (small universes maximize overlap, which is the interesting regime for
/// the bounds).
fn ranking(rng: &mut Rng, k: usize, universe: u32) -> Ranking {
    Ranking::new_unchecked(0, rng.distinct(universe, k))
}

fn ranking_pair(rng: &mut Rng, k: usize, universe: u32) -> (Ranking, Ranking) {
    (ranking(rng, k, universe), ranking(rng, k, universe))
}

// ---- Metric axioms (Fagin et al. prove them; we verify the code). ----

#[test]
fn footrule_identity() {
    check("footrule_identity", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 15);
        let d = footrule_raw(&a, &b);
        assert_eq!(d == 0, a.items() == b.items());
    });
}

#[test]
fn footrule_symmetry() {
    check("footrule_symmetry", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 15);
        assert_eq!(footrule_raw(&a, &b), footrule_raw(&b, &a));
    });
}

#[test]
fn footrule_triangle_inequality() {
    check("footrule_triangle_inequality", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 6, 12);
        let c = ranking(rng, 6, 12);
        let ab = footrule_raw(&a, &b);
        let bc = footrule_raw(&b, &c);
        let ac = footrule_raw(&a, &c);
        assert!(ac <= ab + bc, "d(a,c) = {ac} > {ab} + {bc}");
    });
}

#[test]
fn footrule_bounded_by_maximum() {
    check("footrule_bounded_by_maximum", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 8, 20);
        assert!(footrule_raw(&a, &b) <= max_raw_distance(8));
        let n = footrule_norm(&a, &b);
        assert!((0.0..=1.0).contains(&n));
    });
}

// ---- Early-exit verification is exact. ----

#[test]
fn footrule_within_is_exact() {
    check("footrule_within_is_exact", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 15);
        let threshold = rng.gen_range(0u64..=60);
        let exact = footrule_raw(&a, &b);
        let within = footrule_within(&a, &b, threshold);
        if exact <= threshold {
            assert_eq!(within, Some(exact));
        } else {
            assert_eq!(within, None);
        }
    });
}

// ---- Overlap bound: the distance given overlap o is at least the bound. ----

#[test]
fn overlap_bound_is_sound() {
    check("overlap_bound_is_sound", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let o = a.overlap(&b);
        assert!(footrule_raw(&a, &b) >= min_distance_given_overlap(7, o));
    });
}

// ---- Prefix filter completeness: any pair within θ shares a token in
// both overlap prefixes under the common frequency order. ----

#[test]
fn overlap_prefix_filter_is_complete() {
    check("overlap_prefix_filter_is_complete", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let theta_raw = rng.gen_range(0u64..=30);
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        if footrule_raw(&a, &b) <= theta_raw {
            let freq = FrequencyTable::from_rankings([&a, &b]);
            let oa = OrderedRanking::by_frequency(&a, &freq);
            let ob = OrderedRanking::by_frequency(&b, &freq);
            let p = overlap_prefix_len(7, theta_raw);
            let shares_prefix_token = oa
                .prefix(p)
                .iter()
                .any(|(item, _)| ob.prefix(p).iter().any(|(other, _)| other == item));
            assert!(
                shares_prefix_token,
                "pair within θ = {theta_raw} escaped prefixes of length {p}"
            );
        }
    });
}

// ---- Weighted prefix completeness, exhaustively over small cases: every
// pair of top-k lists over a small universe, every raw θ and every global
// order of the universe. A pair within θ shares an item inside both
// weighted prefixes, and no weighted prefix is longer than the count
// prefix. ----

/// A prefix rule: `(canonical pairs, k, raw θ) → prefix length`.
type PrefixRule = fn(&[(u32, u16)], usize, u64) -> usize;

/// Every ordered selection of `k` distinct items of `0..u`: all top-k
/// lists over the universe.
fn all_lists(k: usize, u: u32) -> Vec<Vec<u32>> {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new()];
    for _ in 0..k {
        lists = lists
            .iter()
            .flat_map(|list| {
                (0..u)
                    .filter(|i| !list.contains(i))
                    .map(|i| [list.as_slice(), &[i]].concat())
            })
            .collect();
    }
    lists
}

/// Every permutation of `0..u`, as a position per item.
fn all_orders(u: u32) -> Vec<Vec<usize>> {
    all_lists(u as usize, u)
        .into_iter()
        .map(|perm| {
            let mut position = vec![0; perm.len()];
            for (pos, &item) in perm.iter().enumerate() {
                position[item as usize] = pos;
            }
            position
        })
        .collect()
}

/// The rank weight `Σ (k − rank)` of some of a ranking's pairs.
fn weight(pairs: &[(u32, u16)], k: usize) -> u64 {
    pairs.iter().map(|&(_, r)| k as u64 - u64::from(r)).sum()
}

/// The weighted prefix by its definition: the shortest `p` with
/// `2·Σ_{j ≥ p} (k − rank_j) < k(k+1) − θ`, no cap (`k` when θ admits
/// disjoint pairs).
fn weighted_by_definition(pairs: &[(u32, u16)], k: usize, theta_raw: u64) -> usize {
    let max = max_raw_distance(k);
    if theta_raw >= max {
        return k;
    }
    (0..=k)
        .find(|&p| 2 * weight(&pairs[p..], k) < max - theta_raw)
        .expect("the empty suffix weighs 0")
}

/// Runs the exhaustive check of `rule` over top-`k` lists of `0..u` under
/// the given global orders; returns the first pair within θ whose prefixes
/// share nothing, or `None` when every qualifying pair meets.
fn first_escape(rule: PrefixRule, k: usize, u: u32, orders: &[Vec<usize>]) -> Option<String> {
    let lists = all_lists(k, u);
    let max = max_raw_distance(k);
    let rankings: Vec<Ranking> = lists
        .iter()
        .map(|items| Ranking::new_unchecked(0, items.clone()))
        .collect();
    // F does not depend on the order: compute it once per pair.
    let distances: Vec<Vec<u64>> = rankings
        .iter()
        .map(|a| rankings.iter().map(|b| footrule_raw(a, b)).collect())
        .collect();
    for position in orders {
        // Canonical pairs of every list, and each list's prefix at every θ.
        let canonical: Vec<Vec<(u32, u16)>> = lists
            .iter()
            .map(|items| {
                let mut pairs: Vec<(u32, u16)> = items
                    .iter()
                    .enumerate()
                    .map(|(r, &i)| (i, r as u16))
                    .collect();
                pairs.sort_by_key(|&(i, _)| position[i as usize]);
                pairs
            })
            .collect();
        let prefixes: Vec<Vec<usize>> = canonical
            .iter()
            .map(|pairs| (0..=max).map(|theta| rule(pairs, k, theta)).collect())
            .collect();
        for (i, a) in canonical.iter().enumerate() {
            for (j, b) in canonical.iter().enumerate().skip(i) {
                let f = distances[i][j];
                // The first shared item in the global order, as positions
                // in a and b; a pair that shares none is disjoint (F = max),
                // which the sentinel group catches, not the prefixes.
                let Some((pos_a, pos_b)) = a.iter().enumerate().find_map(|(pos_a, (item, _))| {
                    b.iter()
                        .position(|(other, _)| other == item)
                        .map(|pos_b| (pos_a, pos_b))
                }) else {
                    assert_eq!(f, max);
                    continue;
                };
                for theta in f..=max {
                    let (pa, pb) = (prefixes[i][theta as usize], prefixes[j][theta as usize]);
                    if pos_a >= pa || pos_b >= pb {
                        return Some(format!(
                            "k = {k}, θ = {theta}: {a:?} and {b:?} at F = {f} escape prefixes {pa} and {pb}"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// `(k, universe)` cases whose every global order is enumerated.
const EXHAUSTIVE: [(usize, u32); 4] = [(1, 3), (2, 4), (3, 5), (4, 5)];

#[test]
fn weighted_prefix_filter_is_complete_exhaustively() {
    for (k, u) in EXHAUSTIVE {
        let escape = first_escape(weighted_prefix_len, k, u, &all_orders(u));
        assert_eq!(escape, None);
    }
    // Overlaps down to 0 need 2k items, whose (2k)! orders are too many to
    // walk. Relabeling the items maps any order to the identity and the set
    // of all lists onto itself, so all lists under one order cover every
    // (pair, order) configuration.
    for (k, u) in [(3, 6), (4, 8)] {
        let identity = [(0..u as usize).collect()];
        assert_eq!(first_escape(weighted_prefix_len, k, u, &identity), None);
    }
}

#[test]
fn weighted_prefix_is_its_definition_and_never_longer_than_the_count_prefix() {
    // The rule reads only the ranks in canonical order, so every rank
    // permutation stands for every ranking under every order.
    for k in 1..=7 {
        for ranks in all_lists(k, k as u32) {
            let pairs: Vec<(u32, u16)> = ranks.iter().map(|&r| (r, r as u16)).collect();
            for theta in 0..=max_raw_distance(k) + 1 {
                let p = weighted_prefix_len(&pairs, k, theta);
                assert_eq!(
                    p,
                    weighted_by_definition(&pairs, k, theta),
                    "{pairs:?} at θ = {theta}"
                );
                assert!(
                    p <= overlap_prefix_len(k, theta),
                    "{pairs:?} at θ = {theta}"
                );
            }
        }
    }
}

/// Two rules one weight unit too permissive must fail the exhaustive check:
/// `2·W ≤ need` in place of `2·W < need` (with `need = k(k+1) − θ`), and a
/// prefix that must hold only `need − 1` of the weight it needs, where
/// `need = ⌊θ/2⌋ + 1` is the least prefix weight with `2·P > θ`.
#[test]
fn weighted_prefix_check_catches_an_off_by_one_rule() {
    fn le_for_lt(pairs: &[(u32, u16)], k: usize, theta_raw: u64) -> usize {
        let max = max_raw_distance(k);
        if theta_raw >= max {
            return k;
        }
        (0..=k)
            .find(|&p| 2 * weight(&pairs[p..], k) <= max - theta_raw)
            .expect("the empty suffix weighs 0")
    }
    fn need_minus_one(pairs: &[(u32, u16)], k: usize, theta_raw: u64) -> usize {
        if theta_raw >= max_raw_distance(k) {
            return k;
        }
        let need = theta_raw / 2 + 1;
        (1..=k)
            .find(|&p| weight(&pairs[..p], k) >= need - 1)
            .expect("the whole ranking weighs more than θ/2")
    }
    for mutant in [le_for_lt as PrefixRule, need_minus_one] {
        let caught = EXHAUSTIVE
            .iter()
            .any(|&(k, u)| first_escape(mutant, k, u, &all_orders(u)).is_some());
        assert!(caught, "the exhaustive check missed an off-by-one rule");
    }
}

// ---- Ordered prefix (Lemma 4.1) completeness: pairs within θ share a
// token among their best-ranked p_o items. ----

#[test]
fn ordered_prefix_filter_is_complete() {
    check("ordered_prefix_filter_is_complete", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        // < k²/2 = 24.5 keeps the lemma applicable.
        let theta_raw = rng.gen_range(0u64..=24);
        if let Some(p) = ordered_prefix_len(7, theta_raw) {
            if footrule_raw(&a, &b) <= theta_raw {
                let shares = a.items()[..p]
                    .iter()
                    .any(|item| b.items()[..p].contains(item));
                assert!(
                    shares,
                    "pair at distance {} ≤ {theta_raw} has disjoint ordered prefixes of length {p}",
                    footrule_raw(&a, &b)
                );
            }
        }
    });
}

// ---- Lemma 4.1 lower bound: disjoint first-p items ⇒ F ≥ 2p². ----

#[test]
fn disjoint_prefix_lower_bound() {
    check("disjoint_prefix_lower_bound", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 8, 16);
        let p = rng.gen_range(1usize..=4);
        let disjoint = a.items()[..p]
            .iter()
            .all(|item| !b.items()[..p].contains(item));
        if disjoint {
            assert!(footrule_raw(&a, &b) >= lower_bound_disjoint_prefix(p));
        }
    });
}

// ---- Position filter soundness: pruning implies the pair is not a result. ----

#[test]
fn position_filter_is_sound() {
    check("position_filter_is_sound", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let theta_raw = rng.gen_range(0u64..=40);
        for (item, rank_a) in a.iter_with_ranks() {
            if let Some(rank_b) = b.rank_of(item) {
                if position_filter_prunes(rank_a, rank_b, theta_raw) {
                    assert!(
                        footrule_raw(&a, &b) > theta_raw,
                        "position filter pruned a true result (item {item}, ranks {rank_a}/{rank_b})"
                    );
                }
            }
        }
    });
}

// ---- min_overlap consistency: fewer shared items ⇒ above threshold. ----

#[test]
fn min_overlap_is_sound() {
    check("min_overlap_is_sound", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let theta_raw = rng.gen_range(0u64..=40);
        let omega = min_overlap(7, theta_raw);
        if a.overlap(&b) < omega {
            assert!(footrule_raw(&a, &b) > theta_raw);
        }
    });
}

// ---- Ordered representation preserves the distance. ----

#[test]
fn ordered_form_preserves_distance() {
    check("ordered_form_preserves_distance", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        assert_eq!(oa.footrule_raw(&ob), footrule_raw(&a, &b));
        assert_eq!(&oa.to_ranking(), &a);
    });
}

// ---- Canonicalization looks up one count per item, and its order equals
// the sort on `order_key`, `(count, item)`, it stands for: over random datasets
// whose ids fall on both sides of the dense bound and next to u32::MAX
// (many ties), items the table never counted, the empty default table a
// serving index seeded by upserts starts from, and per-chunk tables merged
// over a random split, which must be the whole table. ----

/// Pool index → item id, injectively: a third small, a third spread over
/// [1000, 1820) for a pool of 60, across the dense bound
/// `min(max + 1, 4 · occurrences + 1024)` of a dataset of up to 88
/// occurrences, and a third just below u32::MAX.
fn pooled_item(x: u32) -> u32 {
    match x % 3 {
        0 => x / 3,
        1 => 1000 + 41 * (x / 3),
        _ => u32::MAX - x / 3,
    }
}

#[test]
fn by_frequency_equals_a_sort_by_count_then_item() {
    check(
        "by_frequency_equals_a_sort_by_count_then_item",
        CASES,
        |rng| {
            const POOL: u32 = 60;
            let n = rng.gen_range(0usize..12);
            let data: Vec<Ranking> = (0..n)
                .map(|id| {
                    let k = rng.gen_range(1usize..=8);
                    let items = rng.distinct(POOL, k).into_iter().map(pooled_item);
                    Ranking::new_unchecked(id as u64, items.collect())
                })
                .collect();
            let whole = FrequencyTable::from_rankings(&data);
            // Random contiguous parts, empty ones included.
            let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..4))
                .map(|_| rng.gen_range(0..=n))
                .collect();
            cuts.push(n);
            cuts.sort_unstable();
            let mut start = 0;
            let parts: Vec<FrequencyTable> = cuts
                .into_iter()
                .map(|end| {
                    let part = FrequencyTable::from_rankings(&data[start..end]);
                    start = end;
                    part
                })
                .collect();
            let merged = FrequencyTable::merge(&parts);
            // Every pooled id, and ids no pool reaches.
            let probes: Vec<u32> = (0..POOL)
                .map(pooled_item)
                .chain([999, 1001, u32::MAX - POOL])
                .collect();
            let naive = |item: u32| data.iter().filter(|r| r.items().contains(&item)).count();
            for &item in &probes {
                assert_eq!(whole.count(item), naive(item) as u64, "item {item}");
                assert_eq!(merged.count(item), whole.count(item), "item {item}");
            }
            let distinct = probes.iter().filter(|&&item| naive(item) > 0).count();
            let occurrences: usize = data.iter().map(Ranking::k).sum();
            for freq in [&whole, &merged] {
                assert_eq!(freq.distinct_items(), distinct);
                assert_eq!(freq.total_occurrences(), occurrences as u64);
                let mut by_key = probes.clone();
                by_key.sort_by_key(|&item| freq.order_key(item));
                let mut expected = probes.clone();
                expected.sort_by_key(|&item| (naive(item), item));
                assert_eq!(by_key, expected);
            }
            assert_eq!(merged.relative_frequencies(), whole.relative_frequencies());

            let freq = if rng.gen_bool(0.25) {
                FrequencyTable::default()
            } else {
                merged
            };
            // Both sides of the counting cut (k ≤ 32), compared as whole
            // values: the pairs, the shadow, the signature, `lost` and the
            // planes that `from_pairs` builds from the sorted pairs.
            let k = rng.gen_range(1usize..=40);
            let items: Vec<u32> = rng
                .distinct(POOL + 6, k)
                .into_iter()
                .map(pooled_item)
                .collect();
            let ranking = Ranking::new_unchecked(7, items.clone());
            let mut expected: Vec<(u32, u16)> = items.into_iter().zip(0u16..).collect();
            expected.sort_by_key(|&(item, _)| freq.order_key(item));
            let ordered = OrderedRanking::by_frequency(&ranking, &freq);
            assert_eq!(ordered, OrderedRanking::from_pairs(7, expected));
        },
    );
}

// ---- Kendall tau sanity: Diaconis–Graham for shared-domain lists. ----

#[test]
fn kendall_vs_footrule_same_domain() {
    check("kendall_vs_footrule_same_domain", CASES, |rng| {
        let identity = Ranking::new_unchecked(1, (0u32..8).collect());
        let shuffled = Ranking::new_unchecked(2, rng.distinct(8, 8));
        let f = footrule_raw(&identity, &shuffled);
        let k = kendall_tau_topk(&identity, &shuffled);
        assert!(k <= f && f <= 2 * k || (k == 0 && f == 0));
    });
}

// ---- Differential suite: merge fast path vs. the retained naive scan.
// The merge kernel behind `OrderedRanking::footrule_within` must agree
// with `footrule_pairs_within` on every pair, for equal and variable
// lengths, any scrambling of the scan input's pair order, and the four
// threshold boundary regimes (exact, exact − 1, 0, u64::MAX). ----

#[test]
fn merge_verification_equals_naive_scan() {
    check("merge_verification_equals_naive_scan", CASES, |rng| {
        let ka = rng.gen_range(1usize..=12);
        let a = rng.distinct(24, ka);
        let kb = rng.gen_range(1usize..=12);
        let b = rng.distinct(24, kb);
        let scramble = rng.gen_bool(0.5);
        let extra_threshold = rng.gen_range(0u64..=80);
        let to_pairs = |items: &[u32]| -> Vec<(u32, u16)> {
            items
                .iter()
                .enumerate()
                .map(|(rank, &item)| (item, rank as u16))
                .collect()
        };
        let mut pa = to_pairs(&a);
        let mut pb = to_pairs(&b);
        if scramble {
            pa.reverse();
            let mid = pb.len() / 2;
            pb.rotate_left(mid);
        }
        let mut sa = pa.clone();
        let mut sb = pb.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        let exact = footrule_pairs(&pa, &pb);
        for threshold in [exact, exact.saturating_sub(1), 0, u64::MAX, extra_threshold] {
            assert_eq!(
                footrule_sorted_within(&sa, &sb, threshold),
                footrule_pairs_within(&pa, &pb, threshold),
                "lengths ({}, {}), threshold {threshold}",
                pa.len(),
                pb.len()
            );
        }
    });
}

// ---- The shadow view is what the merge kernel assumes it is, and
// OrderedRanking::footrule_within equals the naive scan over the
// canonical pairs. ----

#[test]
fn ordered_ranking_fast_path_is_exact() {
    check("ordered_ranking_fast_path_is_exact", CASES, |rng| {
        let (a, b) = ranking_pair(rng, 7, 14);
        let threshold = rng.gen_range(0u64..=56);
        let a = Ranking::new_unchecked(1, a.items().to_vec());
        let b = Ranking::new_unchecked(2, b.items().to_vec());
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        assert!(oa.pairs_by_item().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            oa.footrule_within(&ob, threshold),
            footrule_pairs_within(oa.pairs(), ob.pairs(), threshold)
        );
    });
}

// ---- The overlap filter in front of the merge is exact: for every raw
// threshold of the length, `verify_candidate` (position filter on a truly
// shared item → signature overlap filter → merge) agrees with the
// retained naive scan on `Some`/`None` and on the distance, so the filter
// never fires on a pair that qualifies. `stride` spreads the item ids
// over the signature's hash range; the small universe keeps overlaps
// high. ----

#[test]
fn verify_candidate_equals_naive_scan_at_every_threshold() {
    check(
        "verify_candidate_equals_naive_scan_at_every_threshold",
        CASES,
        |rng| {
            let (a, b) = ranking_pair(rng, 7, 16);
            let stride = match rng.gen_range(0u8..4) {
                0 => 1,
                1 => 128,
                2 => 65_537,
                _ => rng.gen_range(1u32..=1_000_000),
            };
            let spread = |r: &Ranking, id| {
                Ranking::new_unchecked(id, r.items().iter().map(|&i| i * stride).collect())
            };
            let (a, b) = (spread(&a, 1), spread(&b, 2));
            let freq = FrequencyTable::from_rankings([&a, &b]);
            let oa = OrderedRanking::by_frequency(&a, &freq);
            let ob = OrderedRanking::by_frequency(&b, &freq);
            let shared = oa
                .pairs()
                .iter()
                .find_map(|&(item, rank)| ob.rank_of(item).map(|other| (usize::from(rank), other)));
            assert!(oa.overlap_upper_bound(&ob) >= a.overlap(&b));
            for theta_raw in 0..=max_raw_distance(7) {
                let naive = footrule_pairs_within(oa.pairs(), ob.pairs(), theta_raw);
                for hint in [None, shared] {
                    let outcome = verify_candidate(&oa, &ob, hint, theta_raw, true);
                    assert_eq!(
                        outcome.distance(),
                        naive,
                        "θr = {theta_raw}, hint {hint:?}, outcome {outcome:?}"
                    );
                    if naive.is_some() {
                        assert_eq!(outcome, Verification::Within(footrule_raw(&a, &b)));
                    }
                }
            }
        },
    );
}

// ---- raw_threshold equals exact rational arithmetic on decimal θ. ----

#[test]
fn raw_threshold_is_exact_on_decimal_grid() {
    check("raw_threshold_is_exact_on_decimal_grid", CASES, |rng| {
        let num = rng.gen_range(0u64..=1000);
        let k = rng.gen_range(5usize..=50);
        let theta = num as f64 / 1000.0;
        let exact = (u128::from(num) * u128::from(max_raw_distance(k)) / 1000) as u64;
        assert_eq!(raw_threshold(k, theta), exact);
    });
}

// ---- Variable-length bounds (footnote 1). ----

/// Two rankings of lengths 3..=7 over a universe of 12 items.
fn varlen_pair(rng: &mut Rng) -> (Ranking, Ranking) {
    let ka = rng.gen_range(3usize..=7);
    let a = Ranking::new_unchecked(1, rng.distinct(12, ka));
    let kb = rng.gen_range(3usize..=7);
    let b = Ranking::new_unchecked(2, rng.distinct(12, kb));
    (a, b)
}

#[test]
fn varlen_overlap_bound_is_sound() {
    use topk_rankings::varlen::{min_distance_given_lengths, min_distance_given_overlap_var};
    check("varlen_overlap_bound_is_sound", CASES, |rng| {
        let (a, b) = varlen_pair(rng);
        let o = a.overlap(&b);
        let d = footrule_raw(&a, &b);
        assert!(d >= min_distance_given_overlap_var(a.k(), b.k(), o));
        assert!(d >= min_distance_given_lengths(a.k(), b.k()));
    });
}

#[test]
fn varlen_prefix_filter_is_complete() {
    use topk_rankings::varlen::{min_overlap_var, prefix_len_var};
    check("varlen_prefix_filter_is_complete", CASES, |rng| {
        let (a, b) = varlen_pair(rng);
        let theta_raw = rng.gen_range(0u64..=40);
        // Disjoint-admissible length pairs are routed via the sentinel in
        // the join; the prefix guarantee applies otherwise.
        if footrule_raw(&a, &b) > theta_raw || min_overlap_var(a.k(), b.k(), theta_raw) == Some(0) {
            return;
        }
        let lengths = [a.k(), b.k()];
        let freq = FrequencyTable::from_rankings([&a, &b]);
        let oa = OrderedRanking::by_frequency(&a, &freq);
        let ob = OrderedRanking::by_frequency(&b, &freq);
        let pa = prefix_len_var(a.k(), &lengths, theta_raw);
        let pb = prefix_len_var(b.k(), &lengths, theta_raw);
        let shares = oa
            .prefix(pa)
            .iter()
            .any(|(item, _)| ob.prefix(pb).iter().any(|(other, _)| other == item));
        assert!(
            shares,
            "pair within θ={theta_raw} escaped varlen prefixes ({pa}, {pb})"
        );
    });
}

#[test]
fn may_hold_any_never_clears_a_ranking_that_holds_an_item() {
    // "Holds none" must be true whenever it is answered: a ranking holding
    // one of the items is always "may hold". Small universes make the
    // ranking hold some of them; large ones make bits collide by chance.
    check(
        "may_hold_any_never_clears_a_ranking_that_holds_an_item",
        CASES,
        |rng| {
            let universe = [20, 200, 100_000][rng.gen_range(0usize..3)];
            let k = rng.gen_range(1usize..=20).min(universe as usize);
            let ranking = OrderedRanking::by_rank(&ranking(rng, k, universe));
            let n = rng.gen_range(0usize..=12).min(universe as usize);
            let items = rng.distinct(universe, n);
            let bits: ItemBits = items.iter().copied().collect();
            let held = items.iter().any(|&item| ranking.rank_of(item).is_some());
            assert!(
                !held || ranking.may_hold_any(&bits),
                "{ranking:?} holds one of {items:?}"
            );
            // Each item alone, too.
            for &item in &items {
                let one = ItemBits::from_iter([item]);
                assert!(ranking.rank_of(item).is_none() || ranking.may_hold_any(&one));
            }
        },
    );
}
