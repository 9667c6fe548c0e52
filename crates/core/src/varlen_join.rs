//! Similarity join over **variable-length** rankings — footnote 1 of the
//! paper, implemented: "For handling variable-length rankings, only the
//! length boundaries for the Footrule distance, given a distance threshold,
//! need to be computed."
//!
//! The thresholds here are **raw** Footrule distances: with mixed lengths
//! there is no single `k(k+1)` normalizer, so the caller states the absolute
//! distance budget directly. The dataflow is [`crate::pipeline`]'s; this
//! module supplies the variable-length `JoinSpace`:
//!
//! * per-length **prefixes** ([`topk_rankings::varlen::prefix_len_var`]):
//!   each ranking indexes a prefix long enough for its loosest possible
//!   partner length in the dataset (over R ∪ S in an R-S join — a left
//!   ranking's loosest partner length may only exist on the right),
//! * the **length filter**: a pair whose length gap alone implies a
//!   distance above the threshold is pruned before any content comparison
//!   (booked as `overlap_pruned`, the counter of size-bound prunes),
//! * the **position filter** and the **overlap filter** for same-length
//!   pairs only (the rank-sum cancellation argument and the
//!   `(k − o)(k − o + 1)` bound both need equal lengths),
//! * early-exit Footrule verification (which supports mixed lengths with
//!   each side's own artificial rank).
//!
//! Only the flat prefix join is offered for variable lengths: the Footrule
//! adaptation loses identity-of-indiscernibles across lengths (a length-k
//! ranking and its length-(k+1) extension are at distance 0), so the
//! cluster-based pipeline's metric reasoning would need separate treatment.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use minispark::{Cluster, SkewBudget};
use topk_rankings::varlen::{min_distance_given_lengths, min_overlap_var, prefix_len_var};
use topk_rankings::verify::verify_candidate;
use topk_rankings::{footrule_within, OrderedRanking, PrefixKind, Ranking};

use crate::baseline::all_pairs;
use crate::kernels::{JoinSpace, TokenEntry};
use crate::stats::KernelCounts;
use crate::vj::run_prefix_join;
use crate::{JoinError, JoinOutcome};

/// The variable-length Footrule space at one raw threshold over the ranking
/// lengths present in the input.
#[derive(Debug, Clone)]
struct Varlen {
    theta_raw: u64,
    /// Ranking length → prefix length (small driver-side metadata).
    prefix_of: Arc<HashMap<usize, usize>>,
    /// Whether some length combination admits token-disjoint pairs.
    disjoint_possible: bool,
}

impl Varlen {
    fn new(relations: &[&[Ranking]], theta_raw: u64) -> Self {
        let lengths: Vec<usize> = relations
            .iter()
            .flat_map(|data| data.iter().map(Ranking::k))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let disjoint_possible = lengths.iter().any(|&ka| {
            lengths
                .iter()
                .any(|&kb| min_overlap_var(ka, kb, theta_raw) == Some(0))
        });
        let prefix_of = lengths
            .iter()
            .map(|&k| (k, prefix_len_var(k, &lengths, theta_raw)))
            .collect();
        Self {
            theta_raw,
            prefix_of: Arc::new(prefix_of),
            disjoint_possible,
        }
    }
}

impl JoinSpace for Varlen {
    type Dist = u64;

    fn prefix_len(&self, ranking: &OrderedRanking, _singleton: bool) -> usize {
        self.prefix_of[&ranking.k()]
    }

    fn admits_disjoint(&self, _singleton: bool) -> bool {
        self.disjoint_possible
    }

    /// Length filter, then the shared kernel: equal-length position and
    /// overlap filters, early-exit verification.
    #[inline]
    fn decide(&self, a: &TokenEntry, b: &TokenEntry, counts: &mut KernelCounts) -> Option<u64> {
        let (ka, kb) = (a.ranking.k(), b.ranking.k());
        if min_distance_given_lengths(ka, kb) > self.theta_raw {
            counts.candidates += 1;
            counts.overlap_pruned += 1;
            return None;
        }
        // The position filter needs equal lengths (the kernel's overlap
        // filter checks that for itself).
        let shared_ranks = (usize::from(a.rank), usize::from(b.rank));
        counts.book(verify_candidate(
            &a.ranking,
            &b.ranking,
            Some(shared_ranks),
            self.theta_raw,
            ka == kb,
        ))
    }
}

/// Checks that ids are unique within each relation (across relations they
/// may collide) — what the varlen driver and its oracles both require.
fn unique_ids(relations: &[&[Ranking]]) -> Result<(), JoinError> {
    for data in relations {
        let mut ids = HashSet::with_capacity(data.len());
        if let Some(dup) = data.iter().find(|r| !ids.insert(r.id())) {
            return Err(JoinError::DuplicateRankingId(dup.id()));
        }
    }
    Ok(())
}

/// The one varlen driver: [`run_prefix_join`] in the [`Varlen`] space over
/// one relation or two. Lengths may mix freely; ids must be unique within
/// each relation.
fn varlen(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    theta_raw: u64,
    partitions: usize,
    skew: SkewBudget,
    label: &str,
) -> Result<JoinOutcome, JoinError> {
    let space_for = || {
        unique_ids(relations)?;
        let any_empty = relations.iter().any(|data| data.is_empty());
        Ok((!any_empty).then(|| Varlen::new(relations, theta_raw)))
    };
    run_prefix_join(
        cluster,
        relations,
        PrefixKind::Overlap,
        partitions,
        skew,
        label,
        space_for,
    )
}

/// Prefix-filtered similarity join over rankings of arbitrary (mixed)
/// lengths at a **raw** Footrule threshold. Under a [`SkewBudget`] other
/// than `Off`, oversized token groups are split into ≤-budget sub-partitions
/// joined per chunk and per chunk pair (see [`minispark::skew`]).
pub fn varlen_join(
    cluster: &Cluster,
    data: &[Ranking],
    theta_raw: u64,
    partitions: usize,
    skew: SkewBudget,
) -> Result<JoinOutcome, JoinError> {
    varlen(cluster, &[data], theta_raw, partitions, skew, "varlen")
}

/// [`varlen_join`] over **two relations** (R-S join) at a raw threshold:
/// only cross-relation pairs are candidates and pairs are
/// `(left id, right id)`, sorted — id spaces may overlap.
pub fn varlen_join_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    theta_raw: u64,
    partitions: usize,
    skew: SkewBudget,
) -> Result<JoinOutcome, JoinError> {
    varlen(
        cluster,
        &[left, right],
        theta_raw,
        partitions,
        skew,
        "varlen-rs",
    )
}

/// Exact quadratic R-S baseline at a raw threshold, for mixed-length
/// relations. Pairs are `(left id, right id)`, sorted.
pub fn varlen_brute_force_rs(
    cluster: &Cluster,
    left: &[Ranking],
    right: &[Ranking],
    theta_raw: u64,
) -> Result<JoinOutcome, JoinError> {
    unique_ids(&[left, right])?;
    let within = move |a: &Ranking, b: &Ranking| footrule_within(a, b, theta_raw).is_some();
    Ok(all_pairs(cluster, &[left, right], "varlen-bf-rs", within))
}

/// Exact quadratic baseline at a raw threshold, for mixed-length datasets.
pub fn varlen_brute_force(
    cluster: &Cluster,
    data: &[Ranking],
    theta_raw: u64,
) -> Result<JoinOutcome, JoinError> {
    unique_ids(&[data])?;
    Ok(all_pairs(cluster, &[data], "varlen-bf", move |a, b| {
        footrule_within(a, b, theta_raw).is_some()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::ClusterConfig;
    use topk_datagen::{CorpusProfile, Rng};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).with_default_partitions(8))
    }

    /// A mixed-length corpus: k ∈ {5, 8, 10}, with cross-length
    /// near-duplicates (truncations of the same ranking).
    fn mixed_corpus() -> Vec<Ranking> {
        let base = CorpusProfile::dblp_like(250, 10).generate();
        let mut rng = Rng::seed_from_u64(77);
        let mut out = Vec::new();
        let mut id = 0u64;
        for r in &base {
            let lengths = [5usize, 8, 10];
            let k = lengths[rng.gen_range(0..lengths.len())];
            out.push(Ranking::new_unchecked(id, r.items()[..k].to_vec()));
            id += 1;
            // Occasionally add a truncation of the same ranking — a
            // distance-0 cross-length pair.
            if rng.gen_bool(0.1) && k > 5 {
                out.push(Ranking::new_unchecked(id, r.items()[..k - 2].to_vec()));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_on_mixed_lengths() {
        let c = cluster();
        let data = mixed_corpus();
        for theta_raw in [0u64, 5, 15, 30, 60] {
            let expected = varlen_brute_force(&c, &data, theta_raw)
                .expect("mixed-length corpus is valid input")
                .pairs;
            let got = varlen_join(&c, &data, theta_raw, 8, SkewBudget::Off)
                .expect("mixed-length corpus is valid input")
                .pairs;
            assert_eq!(got, expected, "θ_raw = {theta_raw}");
        }
    }

    #[test]
    fn cross_length_truncations_are_found() {
        // [1..5] vs [1..7]: distance Δ(Δ−1)/2 = 1 with Δ = 2.
        let c = cluster();
        let data = vec![
            Ranking::new(1, vec![1, 2, 3, 4, 5]).expect("distinct items form a valid ranking"),
            Ranking::new(2, vec![1, 2, 3, 4, 5, 6, 7])
                .expect("distinct items form a valid ranking"),
            Ranking::new(3, vec![8, 9, 10]).expect("distinct items form a valid ranking"),
        ];
        let got = varlen_join(&c, &data, 1, 4, SkewBudget::Off)
            .expect("mixed-length input is valid for the varlen join")
            .pairs;
        assert_eq!(got, vec![(1, 2)]);
    }

    #[test]
    fn length_filter_prunes_wide_gaps() {
        let c = cluster();
        let data = vec![
            Ranking::new(1, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(2, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
                .expect("distinct items form a valid ranking"),
        ];
        // Gap Δ = 7 ⇒ min distance 21 > θ = 20 ⇒ pruned by lengths alone,
        // which is a size bound: it books as `overlap_pruned`.
        let outcome = varlen_join(&c, &data, 20, 4, SkewBudget::Off)
            .expect("mixed-length input is valid for the varlen join");
        assert!(outcome.pairs.is_empty());
        let stats = outcome.stats;
        assert_eq!(
            (stats.candidates, stats.overlap_pruned, stats.verified),
            (1, 1, 0),
            "{stats}"
        );
        assert_eq!(stats.triangle_pruned, 0, "{stats}");
        // At θ = 21 the pair becomes reachable; whether it qualifies is up
        // to verification.
        let expected = varlen_brute_force(&c, &data, 21)
            .expect("mixed-length input is valid for the brute force")
            .pairs;
        let got = varlen_join(&c, &data, 21, 4, SkewBudget::Off)
            .expect("mixed-length input is valid for the varlen join")
            .pairs;
        assert_eq!(got, expected);
    }

    /// A varlen run prunes mixed-length pairs by their length gap; those
    /// prunes leave the funnel as `overlap_pruned`, and no triangle bound —
    /// there is none in this driver — is reported.
    #[test]
    fn length_prunes_keep_the_funnel_exact_and_claim_no_triangle_bound() {
        let c = cluster();
        let data = mixed_corpus();
        let (left, right) = mixed_relations();
        for theta_raw in [5u64, 15] {
            let runs = [
                varlen_join(&c, &data, theta_raw, 8, SkewBudget::Off),
                varlen_join_rs(&c, &left, &right, theta_raw, 8, SkewBudget::Off),
            ];
            for run in runs {
                let stats = run.expect("mixed-length input is valid").stats;
                assert_eq!(stats.triangle_pruned, 0, "θ_raw = {theta_raw}: {stats}");
                assert_eq!(stats.triangle_accepted, 0, "θ_raw = {theta_raw}: {stats}");
                assert!(stats.overlap_pruned > 0, "θ_raw = {theta_raw}: {stats}");
                assert_eq!(
                    stats.candidates,
                    stats.position_pruned + stats.overlap_pruned + stats.verified,
                    "θ_raw = {theta_raw}: {stats}"
                );
            }
        }
    }

    #[test]
    fn brute_force_oracles_reject_duplicate_ids_like_the_driver() {
        let c = cluster();
        // Two copies of one id at distance 0: the self-join oracle used to
        // report a bogus (7, 7) pair.
        let dup = vec![
            Ranking::new(7, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(7, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
        ];
        let ok = vec![Ranking::new(7, vec![1, 2, 3]).expect("distinct items form a valid ranking")];
        let rejected = |result: Result<JoinOutcome, JoinError>| {
            matches!(result, Err(JoinError::DuplicateRankingId(7)))
        };
        assert!(rejected(varlen_join(&c, &dup, 10, 4, SkewBudget::Off)));
        assert!(rejected(varlen_brute_force(&c, &dup, 10)));
        assert!(rejected(varlen_join_rs(
            &c,
            &dup,
            &ok,
            10,
            4,
            SkewBudget::Off
        )));
        assert!(rejected(varlen_brute_force_rs(&c, &dup, &ok, 10)));
        assert!(rejected(varlen_brute_force_rs(&c, &ok, &dup, 10)));
        // One id on both sides of an R-S join is a legal pair.
        let pairs = varlen_brute_force_rs(&c, &ok, &ok, 10).expect("ids may repeat across");
        assert_eq!(pairs.pairs, vec![(7, 7)]);
    }

    #[test]
    fn huge_threshold_admits_disjoint_pairs() {
        let c = cluster();
        let data = vec![
            Ranking::new(1, vec![1, 2]).expect("distinct items form a valid ranking"),
            Ranking::new(2, vec![8, 9]).expect("distinct items form a valid ranking"),
            Ranking::new(3, vec![4, 5, 6]).expect("distinct items form a valid ranking"),
        ];
        // Max possible distance across these lengths is small; a raw budget
        // of 100 admits everything, including disjoint pairs.
        let got = varlen_join(&c, &data, 100, 2, SkewBudget::Off)
            .expect("mixed-length input is valid for the varlen join")
            .pairs;
        assert_eq!(got, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn empty_dataset() {
        let c = cluster();
        assert!(varlen_join(&c, &[], 10, 4, SkewBudget::Off)
            .expect("empty input is valid for the varlen join")
            .pairs
            .is_empty());
    }

    /// Splits the mixed corpus into two relations with overlapping id
    /// spaces (both renumbered from 0).
    fn mixed_relations() -> (Vec<Ranking>, Vec<Ranking>) {
        let all = mixed_corpus();
        let split = all.len() / 2;
        let renumber = |rs: &[Ranking]| {
            rs.iter()
                .enumerate()
                .map(|(i, r)| Ranking::new_unchecked(i as u64, r.items().to_vec()))
                .collect::<Vec<_>>()
        };
        (renumber(&all[..split]), renumber(&all[split..]))
    }

    #[test]
    fn rs_matches_brute_force_on_mixed_lengths() {
        let c = cluster();
        let (left, right) = mixed_relations();
        for theta_raw in [0u64, 5, 15, 30, 60] {
            let expected = varlen_brute_force_rs(&c, &left, &right, theta_raw)
                .expect("mixed-length relations are valid input")
                .pairs;
            let got = varlen_join_rs(&c, &left, &right, theta_raw, 8, SkewBudget::Off)
                .expect("mixed-length relations are valid input")
                .pairs;
            assert_eq!(got, expected, "θ_raw = {theta_raw}");
        }
    }

    #[test]
    fn rs_skew_split_never_changes_the_result_set() {
        let c = cluster();
        let (left, right) = mixed_relations();
        let expected = varlen_join_rs(&c, &left, &right, 30, 8, SkewBudget::Off)
            .expect("mixed-length relations are valid input")
            .pairs;
        for budget in [1usize, 3, 100_000] {
            let outcome = varlen_join_rs(&c, &left, &right, 30, 8, SkewBudget::Fixed(budget))
                .expect("mixed-length relations are valid input");
            assert_eq!(outcome.pairs, expected, "budget = {budget}");
            if budget == 1 {
                assert!(outcome.stats.posting_lists_split > 0);
            }
        }
    }

    #[test]
    fn rs_validates_relations_separately_and_handles_empty_sides() {
        let c = cluster();
        let dup = vec![
            Ranking::new(1, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(1, vec![4, 5, 6]).expect("distinct items form a valid ranking"),
        ];
        let ok = vec![Ranking::new(9, vec![1, 2, 3]).expect("distinct items form a valid ranking")];
        assert!(matches!(
            varlen_join_rs(&c, &dup, &ok, 10, 4, SkewBudget::Off),
            Err(JoinError::DuplicateRankingId(1))
        ));
        // An id shared ACROSS relations is legal.
        let other = vec![
            Ranking::new(9, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(1, vec![1, 2, 3, 4]).expect("distinct items form a valid ranking"),
        ];
        let got = varlen_join_rs(&c, &ok, &other, 10, 4, SkewBudget::Off)
            .expect("overlapping id spaces are valid for R-S")
            .pairs;
        assert_eq!(got, vec![(9, 1), (9, 9)]);
        assert!(varlen_join_rs(&c, &ok, &[], 10, 4, SkewBudget::Off)
            .expect("an empty side is valid")
            .pairs
            .is_empty());
    }

    #[test]
    fn zero_skew_budget_is_rejected_like_in_every_other_driver() {
        // `SkewBudget::Fixed(0)` used to be clamped to 1 here while
        // `JoinConfig` / `JaccardConfig` rejected it; the shared driver
        // validates it once, before looking at the input.
        let c = cluster();
        let data = mixed_corpus();
        let zero = SkewBudget::Fixed(0);
        for input in [data.as_slice(), &[]] {
            assert!(matches!(
                varlen_join(&c, input, 30, 8, zero),
                Err(JoinError::InvalidPartitionThreshold)
            ));
            assert!(matches!(
                varlen_join_rs(&c, input, input, 30, 8, zero),
                Err(JoinError::InvalidPartitionThreshold)
            ));
        }
    }

    #[test]
    fn skew_split_never_changes_the_result_set() {
        // ISSUE 5, satellite 4: the generic splitter must be invisible in
        // the varlen driver's output for any budget, and a tiny budget must
        // actually exercise the chunk + chunk-pair path.
        let c = cluster();
        let data = mixed_corpus();
        for theta_raw in [5u64, 30] {
            let expected = varlen_join(&c, &data, theta_raw, 8, SkewBudget::Off)
                .expect("mixed-length corpus is valid input")
                .pairs;
            for budget in [1usize, 3, 10, 100_000] {
                let outcome = varlen_join(&c, &data, theta_raw, 8, SkewBudget::Fixed(budget))
                    .expect("mixed-length corpus is valid input");
                assert_eq!(
                    outcome.pairs, expected,
                    "θ_raw = {theta_raw}, budget = {budget}"
                );
                if budget == 1 {
                    assert!(outcome.stats.posting_lists_split > 0);
                    assert!(outcome.stats.skew_chunks > 0);
                    assert!(outcome.stats.rs_joins > 0);
                }
            }
        }
    }
}
