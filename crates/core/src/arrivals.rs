//! Mini-batch **arrival joins** against a standing corpus — the streaming
//! face of the R-S join.
//!
//! [`ArrivalJoin`] owns a canonicalized corpus inside a
//! [`RankingIndex`](crate::index::RankingIndex) and consumes arrival
//! mini-batches: each arriving ranking is range-queried against everything
//! indexed so far (the corpus, all previous batches, and the earlier members
//! of its own batch) and then inserted. Because every pair of rankings has a
//! unique "later" member and that member performs exactly one query before
//! insertion, each qualifying pair is reported exactly once, and the union
//! of all batch outputs equals the one-shot reference:
//!
//! > the brute-force join of `corpus ∪ arrivals`, restricted to the pairs
//! > with at least one arrival member (`corpus × arrivals ∪
//! > arrivals × arrivals`).
//!
//! Corpus-internal pairs are deliberately *not* produced — the standing
//! corpus is assumed already joined (that is the batch drivers' job).
//!
//! Ids must be globally unique across the corpus and every arrival; a
//! duplicate is rejected *before* the batch mutates any state, so a failed
//! call leaves the joiner exactly as it was.

#![warn(clippy::indexing_slicing)]

use std::collections::HashSet;
use std::time::Instant;

use topk_rankings::Ranking;

use crate::index::RankingIndex;
use crate::stats::{JoinStats, StatsSnapshot};
use crate::{JoinError, JoinOutcome};

/// A standing corpus accepting arrival mini-batches (see the module docs).
pub struct ArrivalJoin {
    index: RankingIndex,
    theta: f64,
    stats: JoinStats,
    batches: u64,
    arrivals: u64,
}

impl ArrivalJoin {
    /// Builds the standing index over `corpus` for arrival joins at
    /// normalized threshold `theta`.
    ///
    /// # Errors
    /// `InvalidThreshold` for a non-probability θ; `DuplicateRankingId` /
    /// `MixedRankingLengths` for an invalid corpus.
    pub fn new(corpus: &[Ranking], theta: f64) -> Result<Self, JoinError> {
        let index = RankingIndex::build(corpus, theta)?;
        Ok(Self {
            index,
            theta,
            stats: JoinStats::default(),
            batches: 0,
            arrivals: 0,
        })
    }

    /// The join threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of rankings currently indexed (corpus + arrivals so far).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is indexed yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of mini-batches consumed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of arrival rankings consumed so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Cumulative filter/verification counters across all batches, with the
    /// same semantics as the batch join kernels.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Joins one mini-batch of arrivals against everything indexed so far
    /// (plus the batch's own earlier members), then folds the batch into the
    /// standing index.
    ///
    /// Returns the batch's qualifying pairs normalized to
    /// `(smaller id, larger id)` — globally unique ids make that
    /// unambiguous — sorted, with the **cumulative** stats snapshot.
    ///
    /// # Errors
    /// `DuplicateRankingId` when an arrival reuses any id seen before
    /// (corpus, earlier batch, or this batch); `MixedRankingLengths` when an
    /// arrival's length differs from the indexed rankings'. Validation runs
    /// before any state changes — on error the joiner is untouched.
    pub fn join_arrivals(&mut self, batch: &[Ranking]) -> Result<JoinOutcome, JoinError> {
        let start = Instant::now();
        // ---- Pre-validate: the batch must be rejectable atomically. ------
        let mut batch_ids = HashSet::with_capacity(batch.len());
        let mut expected_k = if self.index.k() == 0 {
            None
        } else {
            Some(self.index.k())
        };
        for r in batch {
            // Nothing is ever removed, so the index holds every id seen
            // before: the corpus and every earlier arrival.
            if self.index.contains_id(r.id()) || !batch_ids.insert(r.id()) {
                return Err(JoinError::DuplicateRankingId(r.id()));
            }
            match expected_k {
                None => expected_k = Some(r.k()),
                Some(k) if k != r.k() => {
                    return Err(JoinError::MixedRankingLengths {
                        expected: k,
                        found: r.k(),
                    });
                }
                Some(_) => {}
            }
        }

        // ---- Query-then-insert, in batch order. --------------------------
        // The index at query time holds corpus + previous batches + earlier
        // members of this batch, so every pair involving this arrival and an
        // earlier record is reported here and never again.
        let mut pairs = Vec::new();
        for r in batch {
            let neighbours = self
                .index
                .range_query_with_stats(r, self.theta, &self.stats)?;
            for (other, _distance) in neighbours {
                let (x, y) = if other < r.id() {
                    (other, r.id())
                } else {
                    (r.id(), other)
                };
                pairs.push((x, y));
            }
            self.index.insert_ranking(r)?;
        }
        pairs.sort_unstable();
        self.batches += 1;
        self.arrivals += batch.len() as u64;
        Ok(JoinOutcome {
            pairs,
            stats: self.stats.snapshot(),
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{brute_force_join, brute_force_join_rs};
    use minispark::{Cluster, ClusterConfig};
    use topk_datagen::CorpusProfile;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(2))
    }

    /// One-shot reference: all pairs of `corpus ∪ arrivals` with at least
    /// one arrival member, normalized to `(smaller id, larger id)`.
    fn one_shot_reference(corpus: &[Ranking], arrivals: &[Ranking], theta: f64) -> Vec<(u64, u64)> {
        let c = cluster();
        let mut expected: Vec<(u64, u64)> = brute_force_join_rs(&c, corpus, arrivals, theta)
            .expect("valid relations")
            .pairs
            .into_iter()
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        expected.extend(
            brute_force_join(&c, arrivals, theta)
                .expect("valid relation")
                .pairs,
        );
        expected.sort_unstable();
        expected.dedup();
        expected
    }

    fn split_corpus(total: usize, corpus_share: usize) -> (Vec<Ranking>, Vec<Ranking>) {
        let all = CorpusProfile::orku_like(total, 10).generate();
        let (c, a) = all.split_at(corpus_share);
        (c.to_vec(), a.to_vec())
    }

    #[test]
    fn batched_arrivals_equal_one_shot_reference() {
        let (corpus, arrivals) = split_corpus(320, 200);
        for batch_size in [1usize, 7, 40, 120] {
            let mut joiner = ArrivalJoin::new(&corpus, 0.2).expect("valid corpus");
            let mut got = Vec::new();
            for batch in arrivals.chunks(batch_size) {
                got.extend(
                    joiner
                        .join_arrivals(batch)
                        .expect("valid arrival batch")
                        .pairs,
                );
            }
            got.sort_unstable();
            let expected = one_shot_reference(&corpus, &arrivals, 0.2);
            assert_eq!(got, expected, "batch_size = {batch_size}");
            assert_eq!(joiner.arrivals(), arrivals.len() as u64);
            assert!(!expected.is_empty(), "reference should find pairs");
        }
    }

    #[test]
    fn batch_internal_pairs_are_found_without_a_corpus() {
        // Empty corpus: only arrivals×arrivals pairs exist.
        let (_, arrivals) = split_corpus(150, 0);
        let mut joiner = ArrivalJoin::new(&[], 0.2).expect("empty corpus is valid");
        assert!(joiner.is_empty());
        let mut got = Vec::new();
        for batch in arrivals.chunks(33) {
            got.extend(
                joiner
                    .join_arrivals(batch)
                    .expect("valid arrival batch")
                    .pairs,
            );
        }
        got.sort_unstable();
        let expected = brute_force_join(&cluster(), &arrivals, 0.2)
            .expect("valid relation")
            .pairs;
        assert_eq!(got, expected);
    }

    #[test]
    fn corpus_internal_pairs_are_never_reported() {
        // A corpus full of duplicates joined at θ = 0: arrivals that match
        // nothing must report nothing, despite the corpus-internal pairs.
        let corpus = vec![
            Ranking::new(1, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(2, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
        ];
        let arrival = vec![Ranking::new(3, vec![7, 8, 9]).expect("valid ranking")];
        let mut joiner = ArrivalJoin::new(&corpus, 0.0).expect("valid corpus");
        let outcome = joiner.join_arrivals(&arrival).expect("valid batch");
        assert!(outcome.pairs.is_empty());
    }

    #[test]
    fn duplicate_and_mismatched_arrivals_are_rejected_atomically() {
        let corpus = vec![
            Ranking::new(1, vec![1, 2, 3]).expect("valid ranking"),
            Ranking::new(2, vec![4, 5, 6]).expect("valid ranking"),
        ];
        let mut joiner = ArrivalJoin::new(&corpus, 0.3).expect("valid corpus");
        // Id collision with the corpus.
        let dup_corpus = vec![Ranking::new(1, vec![7, 8, 9]).expect("valid ranking")];
        assert!(matches!(
            joiner.join_arrivals(&dup_corpus),
            Err(JoinError::DuplicateRankingId(1))
        ));
        // Intra-batch id collision.
        let dup_batch = vec![
            Ranking::new(5, vec![7, 8, 9]).expect("valid ranking"),
            Ranking::new(5, vec![2, 3, 4]).expect("valid ranking"),
        ];
        assert!(matches!(
            joiner.join_arrivals(&dup_batch),
            Err(JoinError::DuplicateRankingId(5))
        ));
        // Length mismatch.
        let short = vec![Ranking::new(6, vec![7, 8]).expect("valid ranking")];
        assert!(matches!(
            joiner.join_arrivals(&short),
            Err(JoinError::MixedRankingLengths { .. })
        ));
        // Nothing was inserted by the failed batches.
        assert_eq!(joiner.len(), corpus.len());
        assert_eq!(joiner.batches(), 0);
        // Id collision with a previously accepted arrival.
        let ok = vec![Ranking::new(7, vec![7, 8, 9]).expect("valid ranking")];
        joiner.join_arrivals(&ok).expect("valid batch");
        assert!(matches!(
            joiner.join_arrivals(&ok),
            Err(JoinError::DuplicateRankingId(7))
        ));
        assert_eq!(joiner.batches(), 1);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let (corpus, arrivals) = split_corpus(200, 120);
        let mut joiner = ArrivalJoin::new(&corpus, 0.2).expect("valid corpus");
        let mut last_candidates = 0;
        for batch in arrivals.chunks(40) {
            let outcome = joiner.join_arrivals(batch).expect("valid batch");
            assert!(outcome.stats.candidates >= last_candidates);
            last_candidates = outcome.stats.candidates;
        }
        let snap = joiner.stats();
        assert!(snap.candidates > 0);
        assert_eq!(
            snap.candidates,
            snap.position_pruned + snap.overlap_pruned + snap.verified
        );
    }
}
