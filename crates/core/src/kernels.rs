//! Per-group join kernels.
//!
//! After the prefix-emission shuffle, every reduce-side group holds the
//! rankings whose prefix contains one particular token. The kernels here
//! find the qualifying pairs inside one group ([`join_group_nested_loop`],
//! VJ-NL's iterator style of §4.1: every pair of the group, position filter
//! on the group token, no materialized index) or across two sub-partitions
//! of a group (`cross_loop_by`, CL-P's R-S joins of a split group's chunk
//! pairs).
//!
//! VJ's group-local inverted index is not among them: every entry of token
//! t's group has t in its prefix, so probing any index over the group's
//! prefixes walks t's whole posting chain — the entire group — and prunes
//! nothing the nested loop does not enumerate anyway.
//!
//! Kernels emit entry-index triples `(i, j, distance)` with
//! `entries[i].id < entries[j].id`; callers map them to their output type.
//! A pair whose prefixes share several tokens is found in several groups;
//! the pipeline keeps it in exactly one of them (`pipeline::owns`), so
//! nothing downstream deduplicates the groups' output.
//!
//! The all-pairs and cross-chunk loops are generic over the per-pair
//! decision, which is one of the three things a `JoinSpace` supplies; the
//! public `join_group_*` functions are the all-pairs loop's Footrule
//! instantiations. A space whose distance is a metric also implements
//! `MetricSpace`, which is all the CL/CL-P driver ([`crate::cl`]) needs on
//! top.

#![warn(clippy::indexing_slicing)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

use topk_rankings::verify::verify_candidate;
use topk_rankings::{
    max_raw_distance, weighted_prefix_len, ItemId, OrderedRanking, PrefixKind, Relation,
};

use crate::stats::{JoinStats, KernelCounts};

/// One ranking's occurrence in a token group: the token's original rank in
/// the ranking, the length of the prefix the ranking emitted, the
/// centroid-type tag (only meaningful in the centroid join), the source
/// relation (only meaningful in R-S joins), and the ranking itself.
#[derive(Debug, Clone)]
pub struct TokenEntry {
    /// Original rank of the group token within `ranking`.
    pub rank: u16,
    /// How many leading canonical tokens `ranking` emitted, set at
    /// emission: the prefix that decides which group owns a pair.
    pub prefix_len: u16,
    /// Whether this entry is a singleton centroid (Algorithm 1); `false` in
    /// plain self-joins.
    pub singleton: bool,
    /// Which input relation the ranking came from; [`Relation::Left`] in
    /// self-joins.
    pub relation: Relation,
    /// The ranking, shared across groups.
    pub ranking: Arc<OrderedRanking>,
}

impl TokenEntry {
    /// A plain (non-centroid-tagged, left-relation) entry whose prefix is
    /// the whole ranking.
    pub fn plain(rank: u16, ranking: Arc<OrderedRanking>) -> Self {
        Self {
            rank,
            prefix_len: u16::try_from(ranking.k()).unwrap_or(u16::MAX),
            singleton: false,
            relation: Relation::Left,
            ranking,
        }
    }

    /// The prefix `ranking` emitted.
    #[inline]
    pub fn prefix(&self) -> &[(ItemId, u16)] {
        self.ranking.prefix(usize::from(self.prefix_len))
    }

    /// The entry's record identity: `(relation, ranking id)`. In an R-S join
    /// the two id spaces may overlap, so the relation is part of the key.
    #[inline]
    pub fn record_key(&self) -> (Relation, u64) {
        (self.relation, self.ranking.id())
    }
}

/// Whether a token group joins one relation against itself or pairs the two
/// sides of an R-S join.
///
/// The mode decides which pairs a kernel skips *before* the candidate
/// counter: a self-join never relates a ranking id to itself, while a
/// bipartite join only emits cross-relation pairs — equal ids *across*
/// relations are legitimate results there (the id spaces are independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Join a single relation against itself (every driver's classic path).
    SelfJoin,
    /// Join the `Left` relation against the `Right` relation; same-relation
    /// pairs are skipped entirely.
    Bipartite,
}

impl JoinMode {
    /// Whether the pair `(a, b)` is skipped under this mode (checked before
    /// the candidate counter, so skipped pairs never appear in stats).
    #[inline]
    pub fn skips(self, a: &TokenEntry, b: &TokenEntry) -> bool {
        match self {
            JoinMode::SelfJoin => a.ranking.id() == b.ranking.id(),
            JoinMode::Bipartite => a.relation == b.relation,
        }
    }
}

/// What varies between the similarity spaces that ride the one prefix-join
/// dataflow of [`crate::pipeline`]: how long a record's prefix is, whether
/// its threshold admits token-disjoint partners (the sentinel group), and
/// the per-pair decision. Exactly three spaces implement it — [`Footrule`],
/// the variable-length Footrule and Jaccard.
pub(crate) trait JoinSpace: Clone + Send + Sync + 'static {
    /// The distance a qualifying pair carries.
    type Dist: Copy + PartialOrd + Send + Sync + 'static;

    /// Number of leading canonical tokens `ranking` emits. Asked once per
    /// record, at emission; its entries carry the answer
    /// ([`TokenEntry::prefix_len`]).
    fn prefix_len(&self, ranking: &OrderedRanking, singleton: bool) -> usize;

    /// Whether a record with this tag can qualify with a partner it shares
    /// no token with (then it is also routed into the sentinel group).
    fn admits_disjoint(&self, singleton: bool) -> bool;

    /// Decides one candidate pair of a token group — each entry's `rank` is
    /// the group token's rank in it — recording the filter counters in the
    /// calling kernel's `counts`. Returns the distance if the pair qualifies.
    fn decide(
        &self,
        a: &TokenEntry,
        b: &TokenEntry,
        counts: &mut KernelCounts,
    ) -> Option<Self::Dist>;
}

/// What a [`JoinSpace`] whose distance is a **metric** adds so that CL and
/// CL-P run in it ([`crate::cl`]): everything §5 proves uses the triangle
/// inequality and nothing else about the distance. Exactly two spaces
/// implement it — [`Footrule`] and Jaccard; the variable-length Footrule must
/// not (it is not a metric across lengths, see [`crate::varlen_join`]).
///
/// A pair whose distance is not known is reached through a path of *legs* —
/// known distances member → centroid (→ centroid → member) — so the triangle
/// inequality bounds it: `d ≤ Σ legs`, and `d ≥ leg − Σ other legs` for every
/// leg. The two predicates must only answer `true` when the bound holds for
/// certain in the space's arithmetic; whatever they leave open is verified.
pub(crate) trait MetricSpace: JoinSpace {
    /// Stage-label prefix of the space's CL phases (`…/cluster/…`,
    /// `…/join/…`, `…/expand/…`), shared by CL and CL-P. It names stages
    /// only: the live series carry the run's own label
    /// ([`crate::StatsSnapshot::publish`]), so CL-P reports as `cl-p`.
    const CL_STAGES: &'static str;

    /// The distance of a ranking to itself: a pivot's distance in its own
    /// member list, when it is its own home.
    const ZERO: Self::Dist;

    /// Whether the upper bound `Σ legs` certifies a distance ≤ `theta`.
    fn certainly_within(legs: &[Self::Dist], theta: Self::Dist) -> bool;

    /// Whether the lower bound `max(leg − Σ other legs)` certifies a distance
    /// > `theta`.
    fn certainly_beyond(legs: &[Self::Dist], theta: Self::Dist) -> bool;

    /// Decides one pair against `theta` with no triangle bound to go by,
    /// recording it as a candidate. No shared token is known here, so no
    /// position filter applies.
    fn verify(
        a: &OrderedRanking,
        b: &OrderedRanking,
        theta: Self::Dist,
        counts: &mut KernelCounts,
    ) -> Option<Self::Dist>;

    /// Algorithm 2's decision for member `a` of one pivot against member `b`
    /// of another (or of the same) pivot, through the path `a → pivot →
    /// pivot → b`. `legs` holds its known distances: the two pivots' (`None`
    /// inside one cluster) and each member's to its pivot (`None` where the
    /// member is the pivot itself). A path of one leg is the pair's exact
    /// distance — two pivots, or a pivot and a member — and decides it with
    /// no counter. Otherwise the triangle bounds prune or accept where they
    /// are certain (and enabled), and the pair is verified where they are
    /// not. Returns the pair's normalized ids if it is a result at `theta`.
    #[inline]
    fn decide_by_triangle(
        a: &OrderedRanking,
        b: &OrderedRanking,
        legs: [Option<Self::Dist>; 3],
        theta: Self::Dist,
        use_triangle_bounds: bool,
        counts: &mut KernelCounts,
    ) -> Option<(u64, u64)> {
        debug_assert_ne!(
            a.id(),
            b.id(),
            "clusters partition the rankings, so no ranking meets itself"
        );
        let mut path = [Self::ZERO; 3];
        let mut len = 0;
        for (slot, leg) in path.iter_mut().zip(legs.into_iter().flatten()) {
            *slot = leg;
            len += 1;
        }
        let path = path.get(..len).unwrap_or_default();
        let is_result = if let [exact] = path {
            *exact <= theta
        } else if use_triangle_bounds && Self::certainly_beyond(path, theta) {
            counts.triangle_pruned += 1;
            false
        } else if use_triangle_bounds && Self::certainly_within(path, theta) {
            counts.triangle_accepted += 1;
            true
        } else {
            Self::verify(a, b, theta, counts).is_some()
        };
        is_result.then(|| ordered_pair(a.id(), b.id()))
    }
}

/// An unordered id pair in its normal form `(smaller, larger)` — what every
/// self-join emits, each pair once.
#[inline]
pub(crate) fn ordered_pair(x: u64, y: u64) -> (u64, u64) {
    if x < y {
        (x, y)
    } else {
        (y, x)
    }
}

/// When the decode interner holds this many entries, dead `Weak`s are swept
/// before inserting the next one (live entries are genuinely shared and
/// stay).
const DECODE_CACHE_SWEEP_LEN: usize = 8192;

thread_local! {
    /// Per-task-thread interner for spill-replayed rankings: ranking id →
    /// weak handle to the decoded [`OrderedRanking`]. A ranking occurs once
    /// per prefix token in a shuffle, so replaying a spilled partition
    /// without interning rebuilds `avg prefix length` copies of every
    /// ranking — the interner restores the map-side `Arc` sharing. `Weak`
    /// entries keep the cache from pinning rankings beyond the partitions
    /// that reference them.
    static DECODE_INTERNER: RefCell<HashMap<u64, Weak<OrderedRanking>>> =
        RefCell::new(HashMap::new());
}

/// Decodes an `OrderedRanking` through the thread's interner: occurrences of
/// one ranking id within a partition replay share a single allocation. The
/// cached copy is only reused when its pairs match the decoded bytes, so a
/// (never expected) id collision degrades to a fresh allocation, not to
/// wrong data.
fn intern_decoded(id: u64, pairs: Vec<(u32, u16)>) -> Arc<OrderedRanking> {
    DECODE_INTERNER.with(|cell| {
        let mut cache = cell.borrow_mut();
        if let Some(shared) = cache.get(&id).and_then(Weak::upgrade) {
            if shared.pairs() == pairs.as_slice() {
                return shared;
            }
        }
        let fresh = Arc::new(OrderedRanking::from_pairs(id, pairs));
        if cache.len() >= DECODE_CACHE_SWEEP_LEN {
            cache.retain(|_, weak| weak.strong_count() > 0);
        }
        cache.insert(id, Arc::downgrade(&fresh));
        fresh
    })
}

/// Spill encoding (see `minispark::spill`): rank, prefix length, singleton
/// tag, relation tag, ranking id and the `(item, original_rank)` pairs.
/// Decoding rebuilds the `OrderedRanking` through a per-thread interner, so
/// the `Arc` sharing that serialization naturally loses is restored on
/// replay instead of multiplying resident memory by the average prefix
/// length.
impl minispark::Codec for TokenEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.prefix_len.encode(out);
        self.singleton.encode(out);
        self.relation.as_u8().encode(out);
        self.ranking.id().encode(out);
        self.ranking.pairs().to_vec().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let rank = u16::decode(input)?;
        let prefix_len = u16::decode(input)?;
        let singleton = bool::decode(input)?;
        let relation = Relation::from_u8(u8::decode(input)?);
        let id = u64::decode(input)?;
        let pairs = Vec::<(u32, u16)>::decode(input)?;
        Some(Self {
            rank,
            prefix_len,
            singleton,
            relation,
            ranking: intern_decoded(id, pairs),
        })
    }
}

/// Distance thresholds for pairs within a group.
#[derive(Debug, Clone, Copy)]
pub enum GroupThresholds {
    /// Self-joins: one threshold for every pair.
    Uniform(u64),
    /// The centroid join (Lemma 5.3): thresholds by the pair's centroid
    /// types — both non-singleton (`mm` = θ + 2θc), mixed (`ms` = θ + θc),
    /// both singleton (`ss` = θ).
    Mixed {
        /// Threshold for non-singleton / non-singleton pairs.
        mm: u64,
        /// Threshold for mixed pairs.
        ms: u64,
        /// Threshold for singleton / singleton pairs.
        ss: u64,
    },
}

impl GroupThresholds {
    /// The verification threshold for a pair with the given singleton tags.
    #[inline]
    pub fn for_pair(&self, a_singleton: bool, b_singleton: bool) -> u64 {
        match *self {
            GroupThresholds::Uniform(t) => t,
            GroupThresholds::Mixed { mm, ms, ss } => match (a_singleton, b_singleton) {
                (false, false) => mm,
                (true, true) => ss,
                _ => ms,
            },
        }
    }
}

/// The Footrule per-pair decision of the nested-loop and R-S kernels: the
/// shared kernel ([`topk_rankings::verify::verify_candidate`]: position
/// filter on the group token's ranks — the entries' own — overlap filter,
/// then early-exit Footrule), booking the outcome. Yields the distance of a
/// qualifying pair.
#[inline]
fn on_group_token(
    thresholds: &GroupThresholds,
    use_position_filter: bool,
) -> impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<u64> + '_ {
    move |a, b, counts| {
        counts.book(verify_candidate(
            &a.ranking,
            &b.ranking,
            Some((usize::from(a.rank), usize::from(b.rank))),
            thresholds.for_pair(a.singleton, b.singleton),
            use_position_filter,
        ))
    }
}

/// The paper's space: fixed-length rankings under Spearman's Footrule, with
/// per-centroid-type thresholds and prefixes (Lemma 5.3; both types coincide
/// in plain self-joins) and the position filter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footrule {
    /// The uniform ranking length.
    pub k: usize,
    /// Which prefix the records emit; under [`PrefixKind::Weighted`] each
    /// record's own, capped by `prefix_lens`.
    pub prefix_kind: PrefixKind,
    /// Prefix lengths of non-singleton and of singleton entries (the caps
    /// under [`PrefixKind::Weighted`]).
    pub prefix_lens: (usize, usize),
    /// Raw thresholds by the pair's centroid types.
    pub thresholds: GroupThresholds,
    /// Whether the position filter runs before verification.
    pub use_position_filter: bool,
}

impl Footrule {
    /// The plain join at one raw threshold: every record has the same prefix.
    pub(crate) fn uniform(
        k: usize,
        theta_raw: u64,
        prefix_kind: PrefixKind,
        use_position_filter: bool,
    ) -> Self {
        let p = prefix_kind.prefix_len(k, theta_raw);
        Self {
            k,
            prefix_kind,
            prefix_lens: (p, p),
            thresholds: GroupThresholds::Uniform(theta_raw),
            use_position_filter,
        }
    }
}

impl JoinSpace for Footrule {
    type Dist = u64;

    /// The type's prefix length, or under [`PrefixKind::Weighted`] the
    /// record's weighted prefix at its most permissive pair threshold,
    /// capped by it (so `use_lemma53 = false` and `strict_paper_prefixes`
    /// keep their lengths as caps).
    #[inline]
    fn prefix_len(&self, ranking: &OrderedRanking, singleton: bool) -> usize {
        let cap = if singleton {
            self.prefix_lens.1
        } else {
            self.prefix_lens.0
        };
        match self.prefix_kind {
            PrefixKind::Weighted => {
                let theta_raw = self.thresholds.for_pair(singleton, false);
                weighted_prefix_len(ranking.pairs(), self.k, theta_raw).min(cap)
            }
            PrefixKind::Overlap | PrefixKind::Ordered => cap,
        }
    }

    /// A record's most permissive pair threshold is the one against a
    /// non-singleton partner (θ + 2θc for `C_m`, θ + θc for `C_s`).
    fn admits_disjoint(&self, singleton: bool) -> bool {
        self.thresholds.for_pair(singleton, false) >= max_raw_distance(self.k)
    }

    #[inline]
    fn decide(&self, a: &TokenEntry, b: &TokenEntry, counts: &mut KernelCounts) -> Option<u64> {
        on_group_token(&self.thresholds, self.use_position_filter)(a, b, counts)
    }
}

/// Raw Footrule distances are integers: the triangle bounds are exact.
impl MetricSpace for Footrule {
    const CL_STAGES: &'static str = "cl";
    const ZERO: u64 = 0;

    #[inline]
    fn certainly_within(legs: &[u64], theta_raw: u64) -> bool {
        legs.iter().sum::<u64>() <= theta_raw
    }

    #[inline]
    fn certainly_beyond(legs: &[u64], theta_raw: u64) -> bool {
        let path: u64 = legs.iter().sum();
        legs.iter()
            .any(|&leg| leg.saturating_sub(path - leg) > theta_raw)
    }

    #[inline]
    fn verify(
        a: &OrderedRanking,
        b: &OrderedRanking,
        theta_raw: u64,
        counts: &mut KernelCounts,
    ) -> Option<u64> {
        counts.book(verify_candidate(a, b, None, theta_raw, false))
    }
}

/// Orders an entry-index pair by `(relation, ranking id)`. Within one
/// relation this is the classic id order; across relations the `Left` record
/// always comes first, so overlapping R/S id spaces cannot flip which
/// relation the first slot came from.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass entry indices — both i and j are < entries.len()"
)]
fn ordered_indices(entries: &[TokenEntry], i: usize, j: usize) -> (usize, usize) {
    if entries[i].record_key() < entries[j].record_key() {
        (i, j)
    } else {
        (j, i)
    }
}

/// The empty scratch [`join_group_indexed`] takes. Deleted once the
/// benchmark's staged replay stops binding it (ROADMAP item 9).
#[derive(Debug, Default)]
pub struct GroupScratch;

/// Runs `f` with a [`GroupScratch`]. Deleted once the benchmark's staged
/// replay stops binding it (ROADMAP item 9).
pub fn with_group_scratch<R>(f: impl FnOnce(&mut GroupScratch) -> R) -> R {
    f(&mut GroupScratch)
}

/// [`join_group_nested_loop`]; the prefix lengths and the scratch are
/// unused. Deleted once the benchmark's staged replay stops binding it
/// (ROADMAP item 9).
pub fn join_group_indexed(
    entries: &[TokenEntry],
    _prefix_len_of: impl Fn(bool) -> usize,
    thresholds: &GroupThresholds,
    use_position_filter: bool,
    mode: JoinMode,
    stats: &JoinStats,
    _scratch: &mut GroupScratch,
) -> Vec<(usize, usize, u64)> {
    join_group_nested_loop(entries, thresholds, use_position_filter, mode, stats)
}

/// VJ-NL-style kernel: iterate all ordered pairs of the group, position
/// filter on the group token, verify with early exit — no index, no
/// per-group allocations beyond the output.
pub fn join_group_nested_loop(
    entries: &[TokenEntry],
    thresholds: &GroupThresholds,
    use_position_filter: bool,
    mode: JoinMode,
    stats: &JoinStats,
) -> Vec<(usize, usize, u64)> {
    nested_loop_by(
        entries,
        mode,
        stats,
        on_group_token(thresholds, use_position_filter),
    )
}

/// The all-pairs loop of every space: each unordered pair of the group that
/// `mode` does not skip goes through `decide` once.
pub(crate) fn nested_loop_by<D>(
    entries: &[TokenEntry],
    mode: JoinMode,
    stats: &JoinStats,
    decide: impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<D>,
) -> Vec<(usize, usize, D)> {
    // Group boundary: an interleaving point for schedule exploration (a
    // single relaxed-load branch when no hook is installed).
    minispark::sched::yield_point("kernel/nested-loop-group");
    let mut results = Vec::new();
    let mut counts = KernelCounts::default();
    for (i, a) in entries.iter().enumerate() {
        for (j, b) in entries.iter().enumerate().skip(i + 1) {
            if mode.skips(a, b) {
                continue;
            }
            if let Some(d) = decide(a, b, &mut counts) {
                let (x, y) = ordered_indices(entries, i, j);
                results.push((x, y, d));
            }
        }
    }
    counts.flush(stats);
    results
}

/// R-S kernel (§6), the cross-chunk loop of every space: pairs one
/// sub-partition of a split posting list against another, each `left` ×
/// `right` pair that `mode` does not skip going through `decide` once. The
/// chunks of a self-join partition one relation (`mode = SelfJoin`,
/// duplicate ids are skipped); those of a bipartite pipeline's split group
/// are mixed (`mode = Bipartite`: only cross-relation pairs are verified).
/// Returns `(left_idx, right_idx, distance)` triples; callers normalize
/// pair order by `(relation, ranking id)`.
pub(crate) fn cross_loop_by<D>(
    left: &[TokenEntry],
    right: &[TokenEntry],
    mode: JoinMode,
    stats: &JoinStats,
    decide: impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<D>,
) -> Vec<(usize, usize, D)> {
    // Sub-partition boundary: interleaving point, see `nested_loop_by`.
    minispark::sched::yield_point("kernel/rs-group");
    let mut results = Vec::new();
    let mut counts = KernelCounts::default();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if mode.skips(a, b) {
                continue;
            }
            if let Some(d) = decide(a, b, &mut counts) {
                results.push((i, j, d));
            }
        }
    }
    counts.flush(stats);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_rankings::{FrequencyTable, Ranking};

    fn entry(id: u64, items: &[u32], token: u32) -> TokenEntry {
        let r = Ranking::new(id, items.to_vec()).unwrap();
        let ordered = OrderedRanking::by_frequency(&r, &FrequencyTable::default());
        let rank = ordered.rank_of(token).expect("token must be in ranking") as u16;
        TokenEntry::plain(rank, Arc::new(ordered))
    }

    fn tagged_entry(relation: Relation, id: u64, items: &[u32], token: u32) -> TokenEntry {
        let mut e = entry(id, items, token);
        e.relation = relation;
        e
    }

    fn group() -> Vec<TokenEntry> {
        // All contain token 1. Pairs within raw distance 8 (k = 5):
        // (1,2): one swap → 2; (1,3): item 5↔9 at last position → 2;
        // (2,3): differs by swap and item → 4. (1,4)/(2,4)/(3,4): far.
        vec![
            entry(1, &[1, 2, 3, 4, 5], 1),
            entry(2, &[2, 1, 3, 4, 5], 1),
            entry(3, &[1, 2, 3, 4, 9], 1),
            entry(4, &[5, 9, 8, 7, 1], 1),
        ]
    }

    fn pairs_of(results: &[(usize, usize, u64)], entries: &[TokenEntry]) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = results
            .iter()
            .map(|&(i, j, d)| (entries[i].ranking.id(), entries[j].ranking.id(), d))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn nested_loop_finds_expected_pairs() {
        let stats = JoinStats::default();
        let entries = group();
        let results = join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::SelfJoin,
            &stats,
        );
        let pairs = pairs_of(&results, &entries);
        assert_eq!(pairs, vec![(1, 2, 2), (1, 3, 2), (2, 3, 4)]);
        let snap = stats.snapshot();
        assert_eq!(snap.candidates, 6);
        assert_eq!(snap.result_pairs, 3);
    }

    #[test]
    fn nested_loop_skips_duplicate_ranking_ids() {
        // A group holding three copies of ranking 2: pairs of one id are
        // neither candidates nor results.
        let mut entries = group();
        entries.push(entry(2, &[2, 1, 3, 4, 5], 1));
        entries.push(entry(2, &[2, 1, 3, 4, 5], 1));
        let stats = JoinStats::default();
        let results = join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::SelfJoin,
            &stats,
        );
        // 15 pairs of 6 entries, less the 3 pairs among the copies.
        assert_eq!(stats.snapshot().candidates, 12);
        for &(i, j, _) in &results {
            assert_ne!(entries[i].ranking.id(), entries[j].ranking.id());
        }
        let mut ids: Vec<(u64, u64, u64)> = pairs_of(&results, &entries);
        ids.dedup();
        assert_eq!(ids, vec![(1, 2, 2), (1, 3, 2), (2, 3, 4)]);
    }

    #[test]
    fn decode_interns_repeated_rankings() {
        use minispark::Codec;
        let e = entry(42, &[1, 2, 3, 4, 5], 1);
        let mut bytes = Vec::new();
        e.encode(&mut bytes);
        e.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let first = TokenEntry::decode(&mut input).expect("first decode");
        let second = TokenEntry::decode(&mut input).expect("second decode");
        assert!(input.is_empty());
        assert_eq!(first.ranking, second.ranking);
        // The interner must hand back the same allocation for the replayed
        // occurrence, restoring the map-side Arc sharing.
        assert!(Arc::ptr_eq(&first.ranking, &second.ranking));
    }

    #[test]
    fn decode_interner_rejects_mismatched_pairs() {
        use minispark::Codec;
        // Two different rankings that (artificially) share an id: the
        // interner must fall back to fresh allocations, never alias them.
        let a = entry(77, &[1, 2, 3, 4, 5], 1);
        let b = entry(77, &[5, 4, 3, 2, 1], 1);
        let mut bytes = Vec::new();
        a.encode(&mut bytes);
        b.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let da = TokenEntry::decode(&mut input).expect("decode a");
        let db = TokenEntry::decode(&mut input).expect("decode b");
        assert!(!Arc::ptr_eq(&da.ranking, &db.ranking));
        assert_eq!(da.ranking.pairs(), a.ranking.pairs());
        assert_eq!(db.ranking.pairs(), b.ranking.pairs());
    }

    #[test]
    fn position_filter_reduces_verifications() {
        let entries = group();
        let with = JoinStats::default();
        join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(2),
            true,
            JoinMode::SelfJoin,
            &with,
        );
        let without = JoinStats::default();
        join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(2),
            false,
            JoinMode::SelfJoin,
            &without,
        );
        let (with, without) = (with.snapshot(), without.snapshot());
        // Fewer pairs get past the position filter to the overlap filter
        // and the merge.
        assert!(with.position_pruned > 0);
        assert_eq!(without.position_pruned, 0);
        assert!(with.overlap_pruned + with.verified < without.overlap_pruned + without.verified);
        assert!(with.verified <= without.verified);
        assert_eq!(with.result_pairs, without.result_pairs);
    }

    #[test]
    fn mixed_thresholds_select_by_type() {
        let t = GroupThresholds::Mixed {
            mm: 30,
            ms: 20,
            ss: 10,
        };
        assert_eq!(t.for_pair(false, false), 30);
        assert_eq!(t.for_pair(true, false), 20);
        assert_eq!(t.for_pair(false, true), 20);
        assert_eq!(t.for_pair(true, true), 10);
    }

    #[test]
    fn mixed_thresholds_gate_verification() {
        // Pair at distance 4: qualifies under mm = 4 but not under ss = 2.
        let mut a = entry(1, &[1, 2, 3, 4, 5], 1);
        let mut b = entry(2, &[2, 1, 4, 3, 5], 1);
        let stats = JoinStats::default();
        let thresholds = GroupThresholds::Mixed {
            mm: 4,
            ms: 3,
            ss: 2,
        };
        let both_m = join_group_nested_loop(
            &[a.clone(), b.clone()],
            &thresholds,
            false,
            JoinMode::SelfJoin,
            &stats,
        );
        assert_eq!(both_m.len(), 1);
        a.singleton = true;
        b.singleton = true;
        let both_s =
            join_group_nested_loop(&[a, b], &thresholds, false, JoinMode::SelfJoin, &stats);
        assert!(both_s.is_empty());
    }

    #[test]
    fn rs_kernel_joins_across_lists_only() {
        let left = vec![entry(1, &[1, 2, 3, 4, 5], 1)];
        let right = vec![entry(2, &[2, 1, 3, 4, 5], 1), entry(9, &[9, 8, 7, 6, 1], 1)];
        let stats = JoinStats::default();
        let results = cross_loop_by(
            &left,
            &right,
            JoinMode::SelfJoin,
            &stats,
            on_group_token(&GroupThresholds::Uniform(8), true),
        );
        assert_eq!(results.len(), 1);
        let (i, j, d) = results[0];
        assert_eq!((left[i].ranking.id(), right[j].ranking.id(), d), (1, 2, 2));
    }

    /// The R-S kernel over any split of a random group equals the nested
    /// loop restricted to the pairs that cross the split.
    #[test]
    fn rs_kernel_covers_cross_pairs() {
        use topk_datagen::rng::check;
        check("rs_kernel_covers_cross_pairs", 48, |rng| {
            // Rankings of length 6 over items 0..20, all holding the group
            // token 0.
            let rankings: Vec<Ranking> = (0..rng.gen_range(1usize..14))
                .map(|id| {
                    let mut items: Vec<u32> = rng.distinct(19, 5).iter().map(|i| i + 1).collect();
                    items.insert((id % 6).min(items.len()), 0);
                    Ranking::new_unchecked(id as u64, items)
                })
                .collect();
            let freq = FrequencyTable::from_rankings(&rankings);
            let entries: Vec<TokenEntry> = rankings
                .iter()
                .map(|r| {
                    let ordered = OrderedRanking::by_frequency(r, &freq);
                    let rank = ordered.rank_of(0).expect("token 0 present") as u16;
                    TokenEntry::plain(rank, Arc::new(ordered))
                })
                .collect();
            let thresholds = GroupThresholds::Uniform(rng.gen_range(0u64..=42));
            let (left, right) = entries.split_at(rng.gen_range(0usize..14).min(entries.len()));
            let stats = JoinStats::default();
            let decide = || on_group_token(&thresholds, false);
            let mut rs: Vec<(u64, u64, u64)> =
                cross_loop_by(left, right, JoinMode::SelfJoin, &stats, decide())
                    .into_iter()
                    .map(|(i, j, d)| {
                        let (a, b) = (left[i].ranking.id(), right[j].ranking.id());
                        (a.min(b), a.max(b), d)
                    })
                    .collect();
            rs.sort_unstable();
            let all = nested_loop_by(&entries, JoinMode::SelfJoin, &stats, decide());
            let crossing: Vec<(usize, usize, u64)> = all
                .into_iter()
                .filter(|&(i, j, _)| (i < left.len()) != (j < left.len()))
                .collect();
            assert_eq!(rs, pairs_of(&crossing, &entries));
        });
    }

    #[test]
    fn kernels_handle_tiny_groups() {
        let stats = JoinStats::default();
        let one = vec![entry(1, &[1, 2, 3], 1)];
        assert!(join_group_nested_loop(
            &one,
            &GroupThresholds::Uniform(5),
            true,
            JoinMode::SelfJoin,
            &stats
        )
        .is_empty());
        assert!(cross_loop_by(
            &one,
            &[],
            JoinMode::SelfJoin,
            &stats,
            on_group_token(&GroupThresholds::Uniform(5), true),
        )
        .is_empty());
        let empty: Vec<TokenEntry> = vec![];
        assert!(join_group_nested_loop(
            &empty,
            &GroupThresholds::Uniform(5),
            true,
            JoinMode::SelfJoin,
            &stats
        )
        .is_empty());
    }

    /// A mixed-relation group: the bipartite kernels must pair only across
    /// relations, and the left record must always land in the first slot —
    /// even when the right record's id is smaller or equal.
    fn bipartite_group() -> Vec<TokenEntry> {
        vec![
            tagged_entry(Relation::Left, 5, &[1, 2, 3, 4, 5], 1),
            tagged_entry(Relation::Left, 9, &[9, 8, 7, 6, 1], 1),
            tagged_entry(Relation::Right, 2, &[2, 1, 3, 4, 5], 1),
            // Shares id 5 with a left record — a legitimate pair in R-S mode.
            tagged_entry(Relation::Right, 5, &[1, 2, 3, 4, 9], 1),
        ]
    }

    #[allow(clippy::type_complexity)]
    fn relation_pairs_of(
        results: &[(usize, usize, u64)],
        entries: &[TokenEntry],
    ) -> Vec<((Relation, u64), (Relation, u64), u64)> {
        let mut out: Vec<_> = results
            .iter()
            .map(|&(i, j, d)| (entries[i].record_key(), entries[j].record_key(), d))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn bipartite_nested_loop_pairs_across_relations_only() {
        let entries = bipartite_group();
        let stats = JoinStats::default();
        let results = join_group_nested_loop(
            &entries,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::Bipartite,
            &stats,
        );
        let pairs = relation_pairs_of(&results, &entries);
        // Left 5 ↔ Right 2 at distance 2, Left 5 ↔ Right 5 at distance 2;
        // left 9 is far from both right records; left-left and right-right
        // pairs are never considered.
        assert_eq!(
            pairs,
            vec![
                ((Relation::Left, 5), (Relation::Right, 2), 2),
                ((Relation::Left, 5), (Relation::Right, 5), 2),
            ]
        );
        // 2 left × 2 right cross pairs, nothing else, counted as candidates.
        assert_eq!(stats.snapshot().candidates, 4);
        for &(i, j, _) in &results {
            assert_eq!(entries[i].relation, Relation::Left);
            assert_eq!(entries[j].relation, Relation::Right);
        }
    }

    #[test]
    fn bipartite_rs_kernel_skips_same_relation_chunk_pairs() {
        // Chunks of a split bipartite group are mixed-relation; the cross
        // kernel must still only verify cross-relation pairs, including the
        // equal-id cross pair.
        let left_chunk = vec![
            tagged_entry(Relation::Left, 5, &[1, 2, 3, 4, 5], 1),
            tagged_entry(Relation::Right, 2, &[2, 1, 3, 4, 5], 1),
        ];
        let right_chunk = vec![
            tagged_entry(Relation::Left, 9, &[9, 8, 7, 6, 1], 1),
            tagged_entry(Relation::Right, 5, &[1, 2, 3, 4, 9], 1),
        ];
        let stats = JoinStats::default();
        let results = cross_loop_by(
            &left_chunk,
            &right_chunk,
            JoinMode::Bipartite,
            &stats,
            on_group_token(&GroupThresholds::Uniform(8), true),
        );
        // Cross-relation pairs across the chunks: (L5, R5) hit at 2,
        // (R2, L9) far, and the same-relation pairs (L5, L9) / (R2, R5)
        // are skipped before the candidate counter.
        assert_eq!(stats.snapshot().candidates, 2);
        assert_eq!(results.len(), 1);
        let (i, j, d) = results[0];
        assert_eq!(left_chunk[i].record_key(), (Relation::Left, 5));
        assert_eq!(right_chunk[j].record_key(), (Relation::Right, 5));
        assert_eq!(d, 2);
    }

    #[test]
    fn codec_round_trips_relation_tag() {
        use minispark::Codec;
        let e = tagged_entry(Relation::Right, 11, &[1, 2, 3, 4, 5], 1);
        let mut bytes = Vec::new();
        e.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let decoded = TokenEntry::decode(&mut input).expect("decode");
        assert!(input.is_empty());
        assert_eq!(decoded.relation, Relation::Right);
        assert_eq!(decoded.ranking, e.ranking);
    }

    #[test]
    fn footrule_triangle_bounds_are_exact_over_two_and_three_legs() {
        // Exhaustive small grid against the bounds written out leg by leg:
        // upper = Σ legs, lower = the largest leg minus all others (the only
        // leg that can exceed the rest), both compared without any margin.
        for d in 0..10u64 {
            for da in 0..10u64 {
                for theta in 0..32u64 {
                    let two = [d, da];
                    assert_eq!(Footrule::certainly_within(&two, theta), d + da <= theta);
                    assert_eq!(
                        Footrule::certainly_beyond(&two, theta),
                        d.abs_diff(da) > theta
                    );
                    for db in 0..10u64 {
                        let lower = d
                            .saturating_sub(da + db)
                            .max(da.saturating_sub(d + db))
                            .max(db.saturating_sub(d + da));
                        let three = [d, da, db];
                        assert_eq!(
                            Footrule::certainly_within(&three, theta),
                            d + da + db <= theta
                        );
                        assert_eq!(Footrule::certainly_beyond(&three, theta), lower > theta);
                    }
                }
            }
        }
    }
}
