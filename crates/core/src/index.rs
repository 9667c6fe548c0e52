//! An in-memory similarity **range-search index** over top-k rankings — the
//! online companion of the batch joins, in the spirit of the authors' prior
//! work on top-k-list similarity search (Milchevski, Anand, Michel,
//! EDBT 2015, ref. 18, which §4 builds on): an inverted index over
//! frequency-ordered prefixes with the position filter and early-exit
//! verification.
//!
//! Use it when rankings arrive one at a time (a new portal member, a fresh
//! query) and the application needs that record's neighbours immediately —
//! the batch algorithms answer the all-pairs question, this index answers
//! the point question.
//!
//! The index is a standing copy of the batch joins' token groups. It is
//! built for a maximum supported threshold `theta_max`: each record is
//! posted under the tokens the batch Footrule join at `theta_max` emits for
//! it — its weighted prefix, plus the
//! [`DISJOINT_SENTINEL`](crate::pipeline::DISJOINT_SENTINEL) where disjoint
//! pairs qualify. A query at `θ ≤ theta_max` probes the tokens the same
//! join at `θ` emits for it. A stored prefix sized for `theta_max` contains
//! the record's prefix at `θ`, so every qualifying pair shares a probed
//! token. A record reached under several tokens is decided only under the
//! one that `pipeline::owns` the pair, as in the batch groups.
//!
//! The probe is memory-bound: most postings it reaches are rejected, and
//! few records are ever merged. So slots hold their records inline, one
//! dense array of ids, signatures and weight planes, and a reached record
//! is judged from that array first. Ownership is settled from the record's
//! signature whenever it cannot hold a query-prefix item smaller than the
//! token ([`OrderedRanking::may_hold_any`]), and the O(1) bounds read the
//! same array; a record's pairs are read only when a signature bit leaves
//! ownership open, and by the merge.

#![warn(clippy::indexing_slicing)]

use std::collections::HashMap;

use topk_rankings::distance::raw_threshold;
use topk_rankings::verify::verify_candidate;
use topk_rankings::{
    FrequencyTable, ItemBits, ItemId, OrderedRanking, PrefixKind, Ranking, RankingId,
};

use crate::kernels::{Footrule, JoinSpace};
use crate::pipeline::{owns, tokens};
use crate::stats::{JoinStats, KernelCounts};
use crate::JoinError;

/// Inverted prefix index supporting exact Footrule range queries up to a
/// build-time maximum threshold.
///
/// The index is **mutable**: [`RankingIndex::insert_ranking`] upserts (an
/// existing id is *replaced*, never shadowed) and
/// [`RankingIndex::remove_ranking`] deletes. Both tombstone the victim's
/// slot and drop its posting entries, so a stale version can never match a
/// query, and every live id occupies exactly one slot: a query that decides
/// each reached slot once returns each id at most once. Tombstoned slots keep
/// their storage until [`RankingIndex::compacted`] rebuilds — long-lived
/// mutable deployments (see [`crate::serving`]) compact past a tombstone
/// ratio.
pub struct RankingIndex {
    k: usize,
    theta_max: f64,
    freq: FrequencyTable,
    /// `records[slot]`, inline rather than behind a pointer (see the module
    /// docs).
    records: Vec<OrderedRanking>,
    /// `live[slot]` — cleared when an upsert or delete tombstones the slot.
    live: Vec<bool>,
    /// id → the one live slot holding its current version.
    id_to_slot: HashMap<RankingId, u32>,
    /// Count of tombstoned (dead but not yet compacted) slots.
    tombstones: usize,
    /// token → [(slot, the token's original rank in it, the length of the
    /// prefix it is posted under)] at `theta_max`. Only live slots appear:
    /// tombstoning removes the dead slot's entries.
    postings: HashMap<ItemId, Vec<(u32, u16, u16)>>,
}

impl RankingIndex {
    /// Builds the index over `data` for queries with `θ ≤ theta_max`.
    ///
    /// The frequency order is computed from `data` itself; `theta_max`
    /// close to 1 degrades towards indexing whole rankings (prefix = k).
    pub fn build(data: &[Ranking], theta_max: f64) -> Result<Self, JoinError> {
        if !(0.0..=1.0).contains(&theta_max) || !theta_max.is_finite() {
            return Err(JoinError::InvalidThreshold(theta_max));
        }
        let k = crate::pipeline::uniform_k(data)?.unwrap_or(0);
        let freq = FrequencyTable::from_rankings(data);
        let mut index = Self {
            k,
            theta_max,
            freq,
            records: Vec::with_capacity(data.len()),
            live: Vec::with_capacity(data.len()),
            id_to_slot: HashMap::with_capacity(data.len()),
            tombstones: 0,
            postings: HashMap::new(),
        };
        for r in data {
            index.insert_ranking(r)?;
        }
        Ok(index)
    }

    /// Number of **live** indexed rankings (tombstoned slots do not count).
    pub fn len(&self) -> usize {
        self.records.len() - self.tombstones
    }

    /// Whether the index holds no live rankings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots, live and tombstoned — the storage footprint.
    pub fn slot_count(&self) -> usize {
        self.records.len()
    }

    /// Number of tombstoned (dead, not yet compacted) slots.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Fraction of slots that are tombstones, `0.0` while empty. Long-lived
    /// mutable deployments compact past a ratio threshold.
    #[expect(
        clippy::cast_precision_loss,
        reason = "documented precision loss only beyond 2^53 slots — capacity is u32"
    )]
    pub fn tombstone_ratio(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.tombstones as f64 / self.records.len() as f64
        }
    }

    /// Whether `id` currently has a live version in the index.
    pub fn contains_id(&self, id: RankingId) -> bool {
        self.id_to_slot.contains_key(&id)
    }

    /// The current (live) version of `id`, if indexed.
    #[expect(
        clippy::indexing_slicing,
        reason = "id_to_slot only maps to slots pushed into records"
    )]
    pub fn get(&self, id: RankingId) -> Option<Ranking> {
        let slot = *self.id_to_slot.get(&id)?;
        Some(self.records[slot as usize].to_ranking())
    }

    /// All live rankings in slot (insertion) order — the state a snapshot
    /// persists and a compaction rebuilds from.
    pub fn live_rankings(&self) -> Vec<Ranking> {
        self.records
            .iter()
            .zip(&self.live)
            .filter(|&(_, live)| *live)
            .map(|(record, _)| record.to_ranking())
            .collect()
    }

    /// A compacted copy: same `theta_max`, only the live rankings, no
    /// tombstones. The frequency order is recomputed from the surviving
    /// records (any consistent total order preserves prefix-filter
    /// correctness, so query answers are unchanged).
    pub fn compacted(&self) -> Result<Self, JoinError> {
        Self::build(&self.live_rankings(), self.theta_max)
    }

    /// The (fixed) ranking length, 0 while empty.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The maximum supported query threshold.
    pub fn theta_max(&self) -> f64 {
        self.theta_max
    }

    /// Inserts one ranking, **replacing** any existing version of its id
    /// (upsert): the old version's slot is tombstoned and its postings are
    /// dropped, so the stale ranking can never match — and no id ever
    /// appears twice in a query result.
    ///
    /// Note: the canonical item order is frozen at build time; rankings
    /// inserted later are ordered by the original frequency table (their
    /// new items count as frequency 0, i.e. rare — which keeps prefixes
    /// valid, since any consistent total order works for prefix filtering).
    pub fn insert_ranking(&mut self, r: &Ranking) -> Result<(), JoinError> {
        if self.records.is_empty() && self.k == 0 {
            self.k = r.k();
        }
        if r.k() != self.k {
            return Err(JoinError::MixedRankingLengths {
                expected: self.k,
                found: r.k(),
            });
        }
        if let Some(&old) = self.id_to_slot.get(&r.id()) {
            self.tombstone_slot(old);
        }
        let idx = u32::try_from(self.records.len())
            .expect("inverted index capacity exceeded: more than u32::MAX rankings");
        let ordered = OrderedRanking::by_frequency(r, &self.freq);
        let (prefix, sentinel) = prefix_of(self.k, self.theta_max, &ordered);
        let prefix_len = u16::try_from(prefix.len()).unwrap_or(u16::MAX);
        for (token, rank) in tokens(prefix, sentinel) {
            self.postings
                .entry(token)
                .or_default()
                .push((idx, rank, prefix_len));
        }
        self.records.push(ordered);
        self.live.push(true);
        self.id_to_slot.insert(r.id(), idx);
        Ok(())
    }

    /// Deletes `id`'s live version, tombstoning its slot and dropping its
    /// postings. Returns whether the id was present.
    pub fn remove_ranking(&mut self, id: RankingId) -> bool {
        match self.id_to_slot.remove(&id) {
            Some(slot) => {
                self.tombstone_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Marks `slot` dead and removes its posting entries. The caller keeps
    /// `id_to_slot` consistent (remove the id, or re-point it at the
    /// replacement slot).
    #[expect(
        clippy::indexing_slicing,
        reason = "id_to_slot only maps to slots pushed into records"
    )]
    fn tombstone_slot(&mut self, slot: u32) {
        let (prefix, sentinel) = prefix_of(self.k, self.theta_max, &self.records[slot as usize]);
        for (token, _) in tokens(prefix, sentinel) {
            if let Some(list) = self.postings.get_mut(&token) {
                list.retain(|&(s, _, _)| s != slot);
                if list.is_empty() {
                    self.postings.remove(&token);
                }
            }
        }
        debug_assert!(self.live[slot as usize], "slot tombstoned twice");
        self.live[slot as usize] = false;
        self.tombstones += 1;
    }

    /// All indexed rankings within normalized Footrule distance `theta` of
    /// `query`, as `(id, raw_distance)` pairs sorted by distance then id.
    /// Self-matches (same id) are excluded.
    ///
    /// # Errors
    /// `InvalidThreshold` when `theta` is not a probability,
    /// `ThresholdAboveIndexBound` when `theta > theta_max` (the stored
    /// prefixes cannot guarantee completeness beyond the build threshold);
    /// `MixedRankingLengths` when the query length differs.
    pub fn range_query(&self, query: &Ranking, theta: f64) -> Result<Vec<(u64, u64)>, JoinError> {
        self.range_query_impl(query, theta, None)
    }

    /// [`RankingIndex::range_query`] with filter-effectiveness accounting:
    /// counts `candidates` per reached record, under the token that owns it,
    /// `position_pruned` / `overlap_pruned` per filter rejection, `verified`
    /// per Footrule evaluation and `result_pairs` per emitted neighbour — the
    /// same counter semantics as the batch join kernels, so index-backed and
    /// batch runs are comparable in reports and telemetry. The probe counts
    /// locally and adds to `stats` once, when it returns.
    pub fn range_query_with_stats(
        &self,
        query: &Ranking,
        theta: f64,
        stats: &JoinStats,
    ) -> Result<Vec<(u64, u64)>, JoinError> {
        self.range_query_impl(query, theta, Some(stats))
    }

    fn range_query_impl(
        &self,
        query: &Ranking,
        theta: f64,
        stats: Option<&JoinStats>,
    ) -> Result<Vec<(u64, u64)>, JoinError> {
        if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
            return Err(JoinError::InvalidThreshold(theta));
        }
        if theta > self.theta_max + 1e-12 {
            return Err(JoinError::ThresholdAboveIndexBound {
                theta,
                theta_max: self.theta_max,
            });
        }
        if self.is_empty() {
            return Ok(Vec::new());
        }
        if query.k() != self.k {
            return Err(JoinError::MixedRankingLengths {
                expected: self.k,
                found: query.k(),
            });
        }
        let theta_raw = raw_threshold(self.k, theta);
        let ordered_query = OrderedRanking::by_frequency(query, &self.freq);
        let (prefix, sentinel) = prefix_of(self.k, theta, &ordered_query);

        // Each reached record is one candidate, decided under the token that
        // owns the pair by the join kernels' funnel and counted like theirs,
        // in the probe's own counts: no atomic is touched per candidate.
        // Postings name only live slots and a live id owns one slot, so no
        // id is decided twice.
        let mut counts = KernelCounts::default();
        let mut results = Vec::new();
        for (token, query_rank) in tokens(prefix, sentinel) {
            let Some(postings) = self.postings.get(&token) else {
                continue;
            };
            // The query-prefix items that would take the pair from `token`.
            // A record whose signature shares none of their bits holds none
            // of them, so `token` owns the pair without reading its pairs.
            let smaller: ItemBits = prefix
                .iter()
                .map(|&(item, _)| item)
                .filter(|&item| item < token)
                .collect();
            #[expect(
                clippy::indexing_slicing,
                reason = "postings only store slots < records.len(); live has records.len() entries"
            )]
            for &(slot, rank, prefix_len) in postings {
                let slot = slot as usize;
                debug_assert!(
                    self.live[slot],
                    "postings must never name a tombstoned slot"
                );
                let record = &self.records[slot];
                if record.id() == query.id()
                    || record.may_hold_any(&smaller)
                        && !owns(token, prefix, record.prefix(usize::from(prefix_len)))
                {
                    continue;
                }
                // Both ranks are 0 at the sentinel: the position filter passes.
                let shared_ranks = Some((usize::from(query_rank), usize::from(rank)));
                let verdict =
                    verify_candidate(&ordered_query, record, shared_ranks, theta_raw, true);
                if let Some(d) = counts.book(verdict) {
                    results.push((record.id(), d));
                }
            }
        }
        if let Some(stats) = stats {
            counts.flush(stats);
        }
        results.sort_by_key(|&(id, d)| (d, id));
        Ok(results)
    }

    /// The `n` nearest indexed rankings to `query` among those within
    /// `theta_max` (ties by id). Convenience on top of [`RankingIndex::range_query`].
    ///
    /// **Bounded by `theta_max`:** the stored prefixes only guarantee
    /// completeness up to the build threshold, so this returns *fewer than
    /// `n` neighbours* when fewer than `n` rankings lie within `theta_max`
    /// of the query — it is "the n nearest within θ_max", not a global
    /// k-NN. Build with a larger `theta_max` (up to `1.0`, which degrades
    /// to a full scan) if distant neighbours must be reachable.
    pub fn nearest(&self, query: &Ranking, n: usize) -> Result<Vec<(u64, u64)>, JoinError> {
        let mut all = self.range_query(query, self.theta_max)?;
        all.truncate(n);
        Ok(all)
    }
}

/// The prefix the batch Footrule join at `theta` emits for a length-`k`
/// `record`, and whether it also emits the record under the sentinel.
fn prefix_of(k: usize, theta: f64, record: &OrderedRanking) -> (&[(ItemId, u16)], bool) {
    let theta_raw = raw_threshold(k, theta);
    let space = Footrule::uniform(k, theta_raw, PrefixKind::Weighted, true);
    (
        record.prefix(space.prefix_len(record, false)),
        space.admits_disjoint(false),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::CorpusProfile;
    use topk_rankings::footrule_raw;

    fn corpus() -> Vec<Ranking> {
        CorpusProfile::orku_like(400, 10).generate()
    }

    fn linear_scan(data: &[Ranking], query: &Ranking, theta: f64) -> Vec<(u64, u64)> {
        let theta_raw = raw_threshold(query.k(), theta);
        let mut out: Vec<(u64, u64)> = data
            .iter()
            .filter(|r| r.id() != query.id())
            .filter_map(|r| {
                let d = footrule_raw(query, r);
                (d <= theta_raw).then_some((r.id(), d))
            })
            .collect();
        out.sort_by_key(|&(id, d)| (d, id));
        out
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let data = corpus();
        let index = RankingIndex::build(&data, 0.4).expect("uniform-length corpus builds");
        for theta in [0.05, 0.1, 0.2, 0.3, 0.4] {
            for query in data.iter().step_by(37) {
                let got = index
                    .range_query(query, theta)
                    .expect("θ is within the build maximum");
                let expected = linear_scan(&data, query, theta);
                assert_eq!(got, expected, "θ = {theta}, query {}", query.id());
            }
        }
    }

    #[test]
    fn foreign_queries_are_supported() {
        // Queries that are not part of the index (e.g. a new user).
        let data = corpus();
        let index = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        let foreign = Ranking::new_unchecked(999_999, data[3].items().to_vec());
        let got = index
            .range_query(&foreign, 0.3)
            .expect("foreign query with matching k is accepted");
        let expected = linear_scan(&data, &foreign, 0.3);
        assert_eq!(got, expected);
        // Its twin in the corpus is found at distance 0.
        assert_eq!(got[0], (data[3].id(), 0));
    }

    #[test]
    fn incremental_inserts() {
        let data = corpus();
        let (head, tail) = data.split_at(300);
        let mut index = RankingIndex::build(head, 0.3).expect("uniform-length corpus builds");
        for r in tail {
            index
                .insert_ranking(r)
                .expect("insert of a same-length ranking succeeds");
        }
        assert_eq!(index.len(), data.len());
        for query in data.iter().step_by(61) {
            let got = index
                .range_query(query, 0.3)
                .expect("θ is within the build maximum");
            let expected = linear_scan(&data, query, 0.3);
            assert_eq!(got, expected, "query {}", query.id());
        }
    }

    #[test]
    fn rejects_thresholds_beyond_build_max() {
        let data = corpus();
        let index = RankingIndex::build(&data, 0.2).expect("uniform-length corpus builds");
        assert!(index.range_query(&data[0], 0.3).is_err());
        assert!(index.range_query(&data[0], f64::NAN).is_err());
    }

    #[test]
    fn rejects_mismatched_query_length() {
        let data = corpus();
        let index = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        let short = Ranking::new(5, vec![1, 2, 3]).expect("distinct items form a valid ranking");
        assert!(matches!(
            index.range_query(&short, 0.2),
            Err(JoinError::MixedRankingLengths { .. })
        ));
        let mut mutable = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        assert!(mutable.insert_ranking(&short).is_err());
    }

    #[test]
    fn nearest_truncates_and_sorts() {
        let data = corpus();
        let index = RankingIndex::build(&data, 0.4).expect("uniform-length corpus builds");
        let near = index
            .nearest(&data[0], 3)
            .expect("nearest uses the build maximum θ");
        assert!(near.len() <= 3);
        assert!(near.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn stats_threaded_query_matches_and_accounts() {
        let data = corpus();
        let index = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        let stats = JoinStats::default();
        let plain = index
            .range_query(&data[5], 0.2)
            .expect("θ is within the build maximum");
        let counted = index
            .range_query_with_stats(&data[5], 0.2, &stats)
            .expect("θ is within the build maximum");
        assert_eq!(plain, counted);
        let snap = stats.snapshot();
        // Every candidate is position-pruned, overlap-pruned or verified;
        // every result came out of a verification.
        assert_eq!(
            snap.candidates,
            snap.position_pruned + snap.overlap_pruned + snap.verified
        );
        assert_eq!(snap.result_pairs, counted.len() as u64);
        assert!(snap.candidates > 0);
    }

    #[test]
    fn upsert_replaces_not_shadows() {
        // Regression: a re-inserted id used to leave the old version's slot
        // and postings live, so range_query returned the id twice and
        // matched the stale ranking.
        let data = corpus();
        let mut index = RankingIndex::build(&data, 0.4).expect("uniform-length corpus builds");
        let victim = data[7].clone();
        // New version: the items of a far-away ranking under the victim's id.
        let replacement = Ranking::new_unchecked(victim.id(), data[399].items().to_vec());
        index
            .insert_ranking(&replacement)
            .expect("same-length upsert succeeds");
        assert_eq!(index.len(), data.len(), "upsert must not grow the index");
        assert_eq!(index.tombstone_count(), 1);
        assert_eq!(index.get(victim.id()), Some(replacement.clone()));

        // The updated corpus as a plain dataset for the oracle.
        let updated: Vec<Ranking> = data
            .iter()
            .map(|r| {
                if r.id() == victim.id() {
                    replacement.clone()
                } else {
                    r.clone()
                }
            })
            .collect();
        for theta in [0.1, 0.3, 0.4] {
            for query in updated.iter().step_by(29) {
                let got = index
                    .range_query(query, theta)
                    .expect("θ is within the build maximum");
                let mut ids: Vec<u64> = got.iter().map(|&(id, _)| id).collect();
                ids.dedup();
                assert_eq!(ids.len(), got.len(), "duplicate id in results, θ = {theta}");
                assert_eq!(got, linear_scan(&updated, query, theta), "θ = {theta}");
            }
        }
        // The pre-update version must never match: a probe identical to the
        // old victim ranking only sees the new version's distance.
        let probe = Ranking::new_unchecked(888_888, victim.items().to_vec());
        let got = index
            .range_query(&probe, 0.4)
            .expect("θ is within the build maximum");
        let stale_hit = got.iter().any(|&(id, d)| id == victim.id() && d == 0)
            && replacement.items() != victim.items();
        assert!(
            !stale_hit,
            "query matched the tombstoned pre-update ranking"
        );
        assert_eq!(got, linear_scan(&updated, &probe, 0.4));
    }

    #[test]
    fn a_twin_is_one_candidate() {
        // The twin holds the query's items under another id, so it is
        // reached under every token of the query's prefix; only the owning
        // token decides it.
        let query = corpus().swap_remove(3);
        let twin = Ranking::new_unchecked(999_999, query.items().to_vec());
        let index = RankingIndex::build(&[twin], 0.3).expect("one ranking builds");
        assert!(index.postings.len() > 1, "the twin shares several tokens");
        let stats = JoinStats::default();
        let got = index
            .range_query_with_stats(&query, 0.3, &stats)
            .expect("θ equals the build maximum");
        assert_eq!(got, vec![(999_999, 0)]);
        assert_eq!(stats.snapshot().candidates, 1);
    }

    #[test]
    fn upsert_dedup_covers_the_sentinel_group() {
        // θ = 1 ⇒ theta_raw = max_raw_distance ⇒ disjoint pairs qualify and
        // meet under the sentinel; a re-inserted id must still appear exactly
        // once, with its *current* items' distance.
        let data = vec![
            Ranking::new(1, vec![1, 2, 3]).expect("distinct items form a valid ranking"),
            Ranking::new(2, vec![7, 8, 9]).expect("distinct items form a valid ranking"),
            Ranking::new(3, vec![4, 5, 6]).expect("distinct items form a valid ranking"),
        ];
        let mut index = RankingIndex::build(&data, 1.0).expect("uniform-length corpus builds");
        let replacement = Ranking::new_unchecked(2, vec![1, 2, 3]);
        index
            .insert_ranking(&replacement)
            .expect("same-length upsert succeeds");
        let query = Ranking::new_unchecked(99, vec![1, 2, 3]);
        let got = index
            .range_query(&query, 1.0)
            .expect("θ = 1 equals the build maximum");
        // Id 3 shares no item with the query: only the sentinel reaches it.
        assert_eq!(got, vec![(1, 0), (2, 0), (3, 12)]);
        // A query that does not probe the sentinel sees the same versions.
        let narrow = index
            .range_query(&query, 0.1)
            .expect("θ is within the build maximum");
        assert_eq!(narrow, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn remove_ranking_deletes_and_reinsert_revives() {
        let data = corpus();
        let mut index = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        let gone = data[11].clone();
        assert!(index.remove_ranking(gone.id()));
        assert!(!index.remove_ranking(gone.id()), "double delete is a no-op");
        assert!(!index.contains_id(gone.id()));
        assert_eq!(index.len(), data.len() - 1);

        let remaining: Vec<Ranking> = data
            .iter()
            .filter(|r| r.id() != gone.id())
            .cloned()
            .collect();
        let probe = Ranking::new_unchecked(777_777, gone.items().to_vec());
        let got = index
            .range_query(&probe, 0.3)
            .expect("θ is within the build maximum");
        assert_eq!(got, linear_scan(&remaining, &probe, 0.3));
        assert!(!got.iter().any(|&(id, _)| id == gone.id()));

        index
            .insert_ranking(&gone)
            .expect("re-insert after delete succeeds");
        assert!(index.contains_id(gone.id()));
        let got = index
            .range_query(&probe, 0.3)
            .expect("θ is within the build maximum");
        assert_eq!(got, linear_scan(&data, &probe, 0.3));
    }

    #[test]
    fn compaction_preserves_answers_and_drops_tombstones() {
        let data = corpus();
        let mut index = RankingIndex::build(&data, 0.3).expect("uniform-length corpus builds");
        for r in data.iter().take(120) {
            // Churn: upsert every third, delete every fifth.
            if r.id() % 3 == 0 {
                let spun = Ranking::new_unchecked(r.id(), data[350].items().to_vec());
                index.insert_ranking(&spun).expect("upsert succeeds");
            }
            if r.id() % 5 == 0 {
                index.remove_ranking(r.id());
            }
        }
        assert!(index.tombstone_count() > 0);
        assert!(index.tombstone_ratio() > 0.0);
        let compact = index.compacted().expect("live rankings rebuild cleanly");
        assert_eq!(compact.tombstone_count(), 0);
        assert_eq!(compact.len(), index.len());
        assert_eq!(compact.slot_count(), compact.len());
        for query in data.iter().step_by(43) {
            let a = index
                .range_query(query, 0.3)
                .expect("θ is within the build maximum");
            let b = compact
                .range_query(query, 0.3)
                .expect("θ is within the build maximum");
            assert_eq!(a, b, "compaction changed answers for query {}", query.id());
        }
    }

    /// The probe as it stood while `owns` read both prefixes for every
    /// posting reached, before any signature was consulted: the reference
    /// the signature-gated probe must match, result for result and counter
    /// for counter.
    fn reference_probe(
        index: &RankingIndex,
        query: &Ranking,
        theta: f64,
        stats: &JoinStats,
    ) -> Vec<(u64, u64)> {
        let theta_raw = raw_threshold(index.k, theta);
        let ordered_query = OrderedRanking::by_frequency(query, &index.freq);
        let (prefix, sentinel) = prefix_of(index.k, theta, &ordered_query);
        let mut counts = KernelCounts::default();
        let mut results = Vec::new();
        for (token, query_rank) in tokens(prefix, sentinel) {
            for &(slot, rank, prefix_len) in index.postings.get(&token).into_iter().flatten() {
                let record = &index.records[slot as usize];
                if record.id() == query.id()
                    || !owns(token, prefix, record.prefix(usize::from(prefix_len)))
                {
                    continue;
                }
                let shared_ranks = Some((usize::from(query_rank), usize::from(rank)));
                let verdict =
                    verify_candidate(&ordered_query, record, shared_ranks, theta_raw, true);
                if let Some(d) = counts.book(verdict) {
                    results.push((record.id(), d));
                }
            }
        }
        counts.flush(stats);
        results.sort_by_key(|&(id, d)| (d, id));
        results
    }

    /// Asserts that `index` answers `query` at `theta` as the reference
    /// probe does, with the same five counters, and returns the answer.
    fn matches_reference(index: &RankingIndex, query: &Ranking, theta: f64) -> Vec<(u64, u64)> {
        let (got_stats, want_stats) = (JoinStats::default(), JoinStats::default());
        let got = index
            .range_query_with_stats(query, theta, &got_stats)
            .expect("θ is within the build maximum");
        let want = reference_probe(index, query, theta, &want_stats);
        assert_eq!(got, want, "θ = {theta}, query {query:?}");
        assert_eq!(
            got_stats.snapshot(),
            want_stats.snapshot(),
            "θ = {theta}, query {query:?}"
        );
        got
    }

    /// Self queries (an indexed ranking under its own id, which the probe
    /// skips), twins (its items under a new id) and foreign rankings (its
    /// items with the ranks reshuffled and some replaced by items the index
    /// has never counted).
    fn queries(data: &[Ranking], rng: &mut topk_datagen::Rng) -> Vec<Ranking> {
        let mut out = Vec::new();
        for (n, r) in (0u64..).zip(data.iter().step_by(17)) {
            out.push(r.clone());
            out.push(Ranking::new_unchecked(1_000_000 + n, r.items().to_vec()));
            let mut items = r.items().to_vec();
            for _ in 0..rng.gen_range(0usize..=3) {
                let (i, j) = (rng.gen_range(0..items.len()), rng.gen_range(0..items.len()));
                items.swap(i, j);
            }
            for _ in 0..rng.gen_range(0usize..=2) {
                let i = rng.gen_range(0..items.len());
                items[i] = 5_000_000 + rng.gen_range(0u32..1_000);
            }
            // Two replacements may draw the same item: skip that ranking.
            if let Ok(foreign) = Ranking::new(2_000_000 + n, items) {
                out.push(foreign);
            }
        }
        out
    }

    #[test]
    fn signature_gated_probe_matches_the_reference() {
        // Random corpora, θ from 0.05 up to θ_max, queries of every kind, on
        // a fresh index, after upserts and deletes, and compacted.
        let cases = [
            (CorpusProfile::orku_like(400, 10).with_seed(11), 0.3),
            (CorpusProfile::orku_like(300, 10).with_seed(12), 0.45),
            (CorpusProfile::dblp_like(400, 10).with_seed(13), 0.3),
            (CorpusProfile::dblp_like(300, 8).with_seed(14), 0.2),
        ];
        let mut rng = topk_datagen::Rng::seed_from_u64(0x51_6A7E);
        for (profile, theta_max) in cases {
            let data = profile.generate();
            let mut index = RankingIndex::build(&data, theta_max).expect("uniform corpus");
            let probes = queries(&data, &mut rng);
            let thetas = [0.05, 0.1, theta_max / 2.0, theta_max];
            let mut answered = 0;
            let mut check = |index: &RankingIndex| {
                for query in &probes {
                    for theta in thetas {
                        answered += matches_reference(index, query, theta).len();
                    }
                }
            };
            check(&index);
            for r in data.iter().take(150) {
                if r.id() % 3 == 0 {
                    let donor = &data[rng.gen_range(0..data.len())];
                    let upsert = Ranking::new_unchecked(r.id(), donor.items().to_vec());
                    index.insert_ranking(&upsert).expect("same-length upsert");
                }
                if r.id() % 5 == 0 {
                    index.remove_ranking(r.id());
                }
            }
            assert!(index.tombstone_count() > 0);
            check(&index);
            check(&index.compacted().expect("live rankings rebuild"));
            assert!(answered > 0, "{profile:?} answered nothing");
        }
    }

    #[test]
    fn signature_gated_probe_matches_the_reference_under_the_sentinel() {
        // θ_max = 1 admits disjoint pairs: every record is posted under the
        // sentinel too, and a query at θ = 1 probes it with all of its
        // prefix smaller than the token.
        let data = CorpusProfile::orku_like(120, 4).with_seed(15).generate();
        let index = RankingIndex::build(&data, 1.0).expect("uniform corpus");
        assert!(index
            .postings
            .contains_key(&crate::pipeline::DISJOINT_SENTINEL));
        let mut rng = topk_datagen::Rng::seed_from_u64(0x5E_4711);
        for query in queries(&data, &mut rng) {
            for theta in [0.05, 0.3, 0.6, 1.0] {
                let got = matches_reference(&index, &query, theta);
                if theta == 1.0 {
                    let others = data.iter().filter(|r| r.id() != query.id()).count();
                    assert_eq!(got.len(), others, "θ = 1 matches every other ranking");
                }
            }
        }
    }

    #[test]
    fn a_signature_collision_falls_back_to_the_exact_ownership_test() {
        // The query's prefix holds x and t, x < t. Record `collides` is
        // posted under t and holds y, which shares x's signature bit but
        // sits outside its prefix: the signature cannot clear it, `owns`
        // runs and gives t the pair. Record `shares` holds x in its prefix:
        // `owns` takes the pair from t, and x's group decides it.
        let (x, t) = (10, 20);
        let y = (1_000..)
            .find(|&y| ItemBits::from_iter([y]) == ItemBits::from_iter([x]))
            .expect("the hash revisits every bit");
        // Fillers above t, all holding y, make y the most frequent item.
        let mut data: Vec<Ranking> = (0..30)
            .map(|n| {
                let mut items: Vec<ItemId> = (100 + n..109 + n).collect();
                items.push(y);
                Ranking::new_unchecked(u64::from(n), items)
            })
            .collect();
        let fillers: Vec<ItemId> = (101..=108).collect();
        let collides = Ranking::new_unchecked(100, [&[t][..], &fillers, &[y]].concat());
        let shares = Ranking::new_unchecked(101, [&[x, t][..], &fillers[..7], &[y]].concat());
        data.extend([collides.clone(), shares.clone()]);
        let index = RankingIndex::build(&data, 0.3).expect("uniform corpus");
        let query = Ranking::new_unchecked(999, [&[t][..], &fillers, &[x]].concat());

        // The planted layout, read off the index.
        let theta = 0.3;
        let ordered_query = OrderedRanking::by_frequency(&query, &index.freq);
        let (prefix, _) = prefix_of(index.k, theta, &ordered_query);
        let smaller: Vec<ItemId> = prefix
            .iter()
            .map(|&(item, _)| item)
            .filter(|&item| item < t)
            .collect();
        assert_eq!(
            smaller,
            [x],
            "the query prefix holds x, t and nothing else below t"
        );
        assert!(prefix.iter().any(|&(item, _)| item == t));
        let smaller = ItemBits::from_iter(smaller);
        let stored = |id: u64| {
            let record = &index.records[index.id_to_slot[&id] as usize];
            (record, prefix_of(index.k, index.theta_max, record).0)
        };
        let (record, stored_prefix) = stored(collides.id());
        assert!(stored_prefix.iter().any(|&(item, _)| item == t));
        assert!(!stored_prefix.iter().any(|&(item, _)| item == y));
        assert_eq!(record.rank_of(x), None);
        assert!(record.may_hold_any(&smaller), "y's bit keeps x possible");
        assert!(owns(t, prefix, stored_prefix), "fallback: t owns the pair");
        let (record, stored_prefix) = stored(shares.id());
        assert!(stored_prefix.iter().any(|&(item, _)| item == x));
        assert!(stored_prefix.iter().any(|&(item, _)| item == t));
        assert!(!stored_prefix.iter().any(|&(item, _)| item == y));
        assert!(record.may_hold_any(&smaller));
        assert!(!owns(t, prefix, stored_prefix), "fallback: x owns the pair");

        let stats = JoinStats::default();
        let got = index
            .range_query_with_stats(&query, theta, &stats)
            .expect("θ equals the build maximum");
        assert_eq!(got, matches_reference(&index, &query, theta));
        assert_eq!(got, linear_scan(&data, &query, theta));
        assert!(got.contains(&(collides.id(), 2)), "{got:?}");
        // Every record reached, the planted two among them, is one candidate.
        let mut reached: Vec<u32> = tokens(prefix, false)
            .filter_map(|(token, _)| index.postings.get(&token))
            .flatten()
            .map(|&(slot, _, _)| slot)
            .collect();
        reached.sort_unstable();
        reached.dedup();
        assert_eq!(stats.snapshot().candidates, reached.len() as u64);
    }

    #[test]
    fn empty_index() {
        let index = RankingIndex::build(&[], 0.3).expect("empty corpus builds");
        assert!(index.is_empty());
        let q = Ranking::new(1, vec![1, 2, 3]).expect("distinct items form a valid ranking");
        assert!(index
            .range_query(&q, 0.2)
            .expect("θ is within the build maximum")
            .is_empty());
    }
}
