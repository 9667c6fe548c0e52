//! Per-group join kernels.
//!
//! After the prefix-emission shuffle, every reduce-side group holds the
//! rankings whose prefix contains one particular token. The kernels here
//! find the qualifying pairs inside one group (or across two sub-partitions
//! of a group, for CL-P's R-S joins), in the two styles §4 compares:
//!
//! * [`join_group_indexed`] — VJ's style: build a group-local inverted index
//!   over the members' prefixes and probe it (the per-reducer PPJoin-like
//!   pass of Vernica et al.),
//! * [`join_group_nested_loop`] — VJ-NL's style (§4.1): stream ordered pairs
//!   with iterators, applying the position filter on the group token, no
//!   materialized index.
//!
//! Both produce the same pair set; the indexed variant pays index
//! construction and hashing, the nested-loop variant pays O(|group|²)
//! candidate enumeration — exactly the trade-off the paper measures.
//!
//! Kernels emit entry-index triples `(i, j, distance)` with
//! `entries[i].id < entries[j].id`; callers map them to their output type.
//! Cross-group duplicates are removed later by a global `distinct`, as in
//! the paper's final phase.
//!
//! The all-pairs and cross-chunk loops are generic over the per-pair
//! decision, which is one of the three things a `JoinSpace` supplies; the
//! public `join_group_*` functions are their Footrule instantiations. A
//! space whose distance is a metric also implements `MetricSpace`, which is
//! all the CL/CL-P driver ([`crate::cl`]) needs on top.

#![warn(clippy::indexing_slicing)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

use topk_rankings::verify::verify_candidate;
use topk_rankings::{max_raw_distance, ItemId, OrderedRanking, PrefixKind, Relation};

use crate::stats::{JoinStats, KernelCounts};

/// One ranking's occurrence in a token group: the token's original rank in
/// the ranking, the centroid-type tag (only meaningful in the centroid
/// join), the source relation (only meaningful in R-S joins), and the
/// ranking itself.
#[derive(Debug, Clone)]
pub struct TokenEntry {
    /// Original rank of the group token within `ranking`.
    pub rank: u16,
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
    /// A plain (non-centroid-tagged, left-relation) entry.
    pub fn plain(rank: u16, ranking: Arc<OrderedRanking>) -> Self {
        Self {
            rank,
            singleton: false,
            relation: Relation::Left,
            ranking,
        }
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

/// Which per-group kernel a Footrule pipeline uses (§4 vs. §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupJoinStyle {
    /// VJ: group-local inverted index over member prefixes.
    Indexed,
    /// VJ-NL: streaming nested loop over the group.
    NestedLoop,
}

/// What varies between the similarity spaces that ride the one prefix-join
/// dataflow of [`crate::pipeline`]: how long a record's prefix is, whether
/// its threshold admits token-disjoint partners (the sentinel group), and
/// the per-pair decision. Exactly three spaces implement it — [`Footrule`],
/// the variable-length Footrule and Jaccard.
pub(crate) trait JoinSpace: Clone + Send + Sync + 'static {
    /// The distance a qualifying pair carries.
    type Dist: Copy + PartialOrd + Send + Sync + 'static;

    /// Number of leading canonical tokens `ranking` emits.
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

    /// Joins one token group. The nested loop, unless the space has (and was
    /// configured with) a better group kernel.
    fn join_group(
        &self,
        entries: &[TokenEntry],
        mode: JoinMode,
        stats: &JoinStats,
    ) -> Vec<(usize, usize, Self::Dist)> {
        nested_loop_by(entries, mode, stats, |a, b, counts| {
            self.decide(a, b, counts)
        })
    }
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
    /// Stage-label prefix of the space's CL phases; up to the first `/` it is
    /// also the `driver` of their live kernel series.
    const CL_STAGES: &'static str;

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

    /// Algorithm 2's decision for one candidate pair reached through `legs`:
    /// pruned or accepted by the triangle bounds where they are certain (and
    /// enabled), verified otherwise. Returns the pair's normalized ids if it
    /// is a result at `theta`. Clusters overlap, so a record can meet itself:
    /// that is no candidate and touches no counter.
    #[inline]
    fn decide_by_triangle(
        a: &OrderedRanking,
        b: &OrderedRanking,
        legs: &[Self::Dist],
        theta: Self::Dist,
        use_triangle_bounds: bool,
        counts: &mut KernelCounts,
    ) -> Option<(u64, u64)> {
        if a.id() == b.id() {
            return None;
        }
        let is_result = if use_triangle_bounds && Self::certainly_beyond(legs, theta) {
            counts.triangle_pruned += 1;
            false
        } else if use_triangle_bounds && Self::certainly_within(legs, theta) {
            counts.triangle_accepted += 1;
            true
        } else {
            Self::verify(a, b, theta, counts).is_some()
        };
        is_result.then(|| ordered_pair(a.id(), b.id()))
    }
}

/// An unordered id pair in its normal form `(smaller, larger)` — what every
/// self-join emits, so the final dedup is a plain `distinct`.
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

/// Spill encoding (see `minispark::spill`): rank, singleton tag, relation
/// tag, ranking id and the `(item, original_rank)` pairs. Decoding rebuilds
/// the `OrderedRanking` through a per-thread interner, so the `Arc` sharing
/// that serialization naturally loses is restored on replay instead of
/// multiplying resident memory by the average prefix length.
impl minispark::Codec for TokenEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rank.encode(out);
        self.singleton.encode(out);
        self.relation.as_u8().encode(out);
        self.ranking.id().encode(out);
        self.ranking.pairs().to_vec().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let rank = u16::decode(input)?;
        let singleton = bool::decode(input)?;
        let relation = Relation::from_u8(u8::decode(input)?);
        let id = u64::decode(input)?;
        let pairs = Vec::<(u32, u16)>::decode(input)?;
        Some(Self {
            rank,
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

    /// The largest threshold (used for sizing shared structures).
    pub fn max(&self) -> u64 {
        match *self {
            GroupThresholds::Uniform(t) => t,
            GroupThresholds::Mixed { mm, ms, ss } => mm.max(ms).max(ss),
        }
    }
}

/// Verifies one candidate pair through the shared kernel
/// ([`topk_rankings::verify::verify_candidate`]: position filter on the
/// shared token's ranks, overlap filter, then early-exit Footrule), booking
/// the outcome. Returns the distance if the pair qualifies.
#[inline]
fn verify_pair(
    a: &TokenEntry,
    b: &TokenEntry,
    shared_ranks: (u16, u16),
    thresholds: &GroupThresholds,
    use_position_filter: bool,
    counts: &mut KernelCounts,
) -> Option<u64> {
    counts.book(verify_candidate(
        &a.ranking,
        &b.ranking,
        Some((shared_ranks.0 as usize, shared_ranks.1 as usize)),
        thresholds.for_pair(a.singleton, b.singleton),
        use_position_filter,
    ))
}

/// The Footrule per-pair decision of the nested-loop and R-S kernels: the
/// shared token is the group's, so its ranks are the entries' own.
#[inline]
fn on_group_token(
    thresholds: &GroupThresholds,
    use_position_filter: bool,
) -> impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<u64> + '_ {
    move |a, b, counts| {
        verify_pair(
            a,
            b,
            (a.rank, b.rank),
            thresholds,
            use_position_filter,
            counts,
        )
    }
}

/// The paper's space: fixed-length rankings under Spearman's Footrule, with
/// per-centroid-type thresholds and prefixes (Lemma 5.3; both types coincide
/// in plain self-joins), the position filter, and the choice of group kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footrule {
    /// The uniform ranking length.
    pub k: usize,
    /// Prefix lengths of non-singleton and of singleton entries.
    pub prefix_lens: (usize, usize),
    /// Raw thresholds by the pair's centroid types.
    pub thresholds: GroupThresholds,
    /// Whether the position filter runs before verification.
    pub use_position_filter: bool,
    /// The kernel for ordinary (non-sentinel) token groups.
    pub style: GroupJoinStyle,
}

impl Footrule {
    /// The plain join at one raw threshold: every record has the same prefix.
    pub(crate) fn uniform(
        k: usize,
        theta_raw: u64,
        prefix_kind: PrefixKind,
        style: GroupJoinStyle,
        use_position_filter: bool,
    ) -> Self {
        let p = prefix_kind.prefix_len(k, theta_raw);
        Self {
            k,
            prefix_lens: (p, p),
            thresholds: GroupThresholds::Uniform(theta_raw),
            use_position_filter,
            style,
        }
    }

    #[inline]
    fn prefix_len_of(&self, singleton: bool) -> usize {
        if singleton {
            self.prefix_lens.1
        } else {
            self.prefix_lens.0
        }
    }
}

impl JoinSpace for Footrule {
    type Dist = u64;

    #[inline]
    fn prefix_len(&self, _ranking: &OrderedRanking, singleton: bool) -> usize {
        self.prefix_len_of(singleton)
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

    fn join_group(
        &self,
        entries: &[TokenEntry],
        mode: JoinMode,
        stats: &JoinStats,
    ) -> Vec<(usize, usize, u64)> {
        match self.style {
            GroupJoinStyle::Indexed => with_group_scratch(|scratch| {
                join_group_indexed(
                    entries,
                    |singleton| self.prefix_len_of(singleton),
                    &self.thresholds,
                    self.use_position_filter,
                    mode,
                    stats,
                    scratch,
                )
            }),
            GroupJoinStyle::NestedLoop => join_group_nested_loop(
                entries,
                &self.thresholds,
                self.use_position_filter,
                mode,
                stats,
            ),
        }
    }
}

/// Raw Footrule distances are integers: the triangle bounds are exact.
impl MetricSpace for Footrule {
    const CL_STAGES: &'static str = "cl";

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

/// Sentinel chain terminator for [`GroupScratch`] posting chains.
const NO_POSTING: u32 = u32::MAX;

/// One node of an intrusive posting chain in the flat arena: the entry it
/// refers to, the token's original rank in that entry, and the arena index
/// of the next posting for the same item.
#[derive(Debug, Clone, Copy)]
struct Posting {
    entry: u32,
    rank: u16,
    next: u32,
}

/// Reusable working memory for [`join_group_indexed`].
///
/// The kernel used to build a fresh `HashMap<ItemId, Vec<(usize, u16)>>` per
/// group — one map plus one `Vec` allocation per distinct prefix token, per
/// group, for the lifetime of the join. The scratch replaces the per-token
/// `Vec`s with intrusive chains in a single flat arena and the per-probe
/// `seen` clear loop with a generation counter, so a warm scratch runs the
/// kernel without allocating at all. One group's contents never leak into
/// the next: `begin_group` resets the arena and `next_probe` invalidates
/// every stamp by bumping the generation.
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// Item id → arena index of the newest posting for that item.
    heads: HashMap<ItemId, u32>,
    /// Flat arena of posting-chain nodes, reused across groups.
    postings: Vec<Posting>,
    /// Entry indices in processing order, reused across groups.
    order: Vec<u32>,
    /// Per-entry stamp; an entry is "seen by the current probe" iff its
    /// stamp equals `generation`.
    seen_stamp: Vec<u32>,
    /// Current probe's stamp value; bumping it un-sees every entry in O(1).
    generation: u32,
}

impl GroupScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the scratch for a group of `n` entries.
    fn begin_group(&mut self, n: usize) {
        self.heads.clear();
        self.postings.clear();
        self.order.clear();
        if self.seen_stamp.len() < n {
            self.seen_stamp.resize(n, 0);
        }
    }

    /// Starts a new probe: returns the stamp that marks entries as seen by
    /// it. On the (astronomically rare) generation wrap the stamps are
    /// zeroed so stale stamps from 2³² probes ago can never alias.
    fn next_probe(&mut self) -> u32 {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.seen_stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        self.generation
    }
}

thread_local! {
    /// Per-executor-thread [`GroupScratch`]: every group a thread processes
    /// reuses one arena instead of rebuilding the inverted index from
    /// nothing. Kernel closures run as `Fn` from multiple executor threads,
    /// so the scratch is thread-local rather than captured.
    static GROUP_SCRATCH: RefCell<GroupScratch> = RefCell::new(GroupScratch::new());
}

/// Runs `f` with the calling thread's reusable [`GroupScratch`].
///
/// This is how the pipelines thread the scratch into
/// [`join_group_indexed`]; tests that want a cold scratch can pass their own
/// `GroupScratch::new()` instead.
pub fn with_group_scratch<R>(f: impl FnOnce(&mut GroupScratch) -> R) -> R {
    GROUP_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// VJ-style kernel: index the group members' prefixes in a group-local
/// inverted index and probe it, verifying each distinct colliding pair once.
///
/// `prefix_len_of(singleton)` gives the prefix length of an entry (constant
/// for self-joins, type-dependent in the centroid join). `mode` selects the
/// skip rule: a self-join skips duplicate ranking ids, a bipartite join
/// skips same-relation pairs (see [`JoinMode`]). `scratch` is the reusable
/// index memory — see [`GroupScratch`] and [`with_group_scratch`].
pub fn join_group_indexed(
    entries: &[TokenEntry],
    prefix_len_of: impl Fn(bool) -> usize,
    thresholds: &GroupThresholds,
    use_position_filter: bool,
    mode: JoinMode,
    stats: &JoinStats,
    scratch: &mut GroupScratch,
) -> Vec<(usize, usize, u64)> {
    // Group boundary: an interleaving point for schedule exploration (a
    // single relaxed-load branch when no hook is installed).
    minispark::sched::yield_point("kernel/indexed-group");
    let mut results = Vec::new();
    if entries.len() < 2 {
        return results;
    }
    let mut counts = KernelCounts::default();
    scratch.begin_group(entries.len());
    // Process in ranking-id order so the index only ever holds ids no larger
    // than the probe's. The slot index breaks id ties, making the order
    // total — duplicate-id groups traverse identically on every run.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "group cardinality is far below u32::MAX — slot ids fit u32"
    )]
    scratch.order.extend(0..entries.len() as u32);
    #[expect(
        clippy::indexing_slicing,
        reason = "order holds exactly 0..entries.len() — every slot id is in range"
    )]
    scratch
        .order
        .sort_unstable_by_key(|&i| (entries[i as usize].ranking.id(), i));

    for oi in 0..scratch.order.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "oi < order.len() by the loop bound; order ids are < entries.len()"
        )]
        let probe_idx = scratch.order[oi] as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "oi < order.len() by the loop bound; order ids are < entries.len()"
        )]
        let probe = &entries[probe_idx];
        let p = prefix_len_of(probe.singleton);
        let stamp = scratch.next_probe();
        for &(item, rank) in probe.ranking.prefix(p) {
            let mut cursor: u32 = scratch.heads.get(&item).copied().unwrap_or(NO_POSTING);
            #[expect(
                clippy::indexing_slicing,
                reason = "cursor ≠ NO_POSTING is a valid posting id — chains only link inserted nodes; entry < entries.len() and seen_stamp is sized by begin_group"
            )]
            while cursor != NO_POSTING {
                let Posting {
                    entry,
                    rank: indexed_rank,
                    next,
                } = scratch.postings[cursor as usize];
                cursor = next;
                let indexed_idx = entry as usize;
                if scratch.seen_stamp[indexed_idx] == stamp {
                    continue;
                }
                scratch.seen_stamp[indexed_idx] = stamp;
                let indexed = &entries[indexed_idx];
                // A ranking can occur more than once in a group (duplicate
                // ids in the input) and a bipartite group never pairs
                // records of one relation; the mode's skip rule is applied
                // before the candidate counter so every kernel's stats
                // agree.
                if mode.skips(indexed, probe) {
                    continue;
                }
                if let Some(d) = verify_pair(
                    indexed,
                    probe,
                    (indexed_rank, rank),
                    thresholds,
                    use_position_filter,
                    &mut counts,
                ) {
                    let (a, b) = ordered_indices(entries, indexed_idx, probe_idx);
                    results.push((a, b, d));
                }
            }
        }
        // Index the probe's prefix for subsequent (larger-id) members:
        // head-insert each token into its intrusive chain.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "probe_idx < entries.len(), which fits u32 — see the order construction; posting count ≤ group size × prefix length — far below u32::MAX"
        )]
        for &(item, rank) in probe.ranking.prefix(p) {
            let head = scratch.heads.entry(item).or_insert(NO_POSTING);
            let node = Posting {
                entry: probe_idx as u32,
                rank,
                next: *head,
            };
            *head = scratch.postings.len() as u32;
            scratch.postings.push(node);
        }
    }
    counts.flush(stats);
    results
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
    // Group boundary: interleaving point, see `join_group_indexed`.
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

/// R-S kernel (§6): pairs one sub-partition of a split posting list against
/// another. Used by CL-P's chunk-pair plans (`mode = SelfJoin`: the chunks
/// partition one relation, duplicate ids are skipped) and by the bipartite
/// pipelines' split hot groups (`mode = Bipartite`: only cross-relation
/// pairs are verified). Returns `(left_idx, right_idx, distance)` triples;
/// callers normalize pair order by `(relation, ranking id)`.
pub fn join_group_rs(
    left: &[TokenEntry],
    right: &[TokenEntry],
    thresholds: &GroupThresholds,
    use_position_filter: bool,
    mode: JoinMode,
    stats: &JoinStats,
) -> Vec<(usize, usize, u64)> {
    cross_loop_by(
        left,
        right,
        mode,
        stats,
        on_group_token(thresholds, use_position_filter),
    )
}

/// The cross-chunk loop of every space: each `left` × `right` pair that
/// `mode` does not skip goes through `decide` once.
pub(crate) fn cross_loop_by<D>(
    left: &[TokenEntry],
    right: &[TokenEntry],
    mode: JoinMode,
    stats: &JoinStats,
    decide: impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<D>,
) -> Vec<(usize, usize, D)> {
    // Sub-partition boundary: interleaving point, see `join_group_indexed`.
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
    fn indexed_matches_nested_loop() {
        let entries = group();
        let stats_nl = JoinStats::default();
        let nl = pairs_of(
            &join_group_nested_loop(
                &entries,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_nl,
            ),
            &entries,
        );
        let stats_ix = JoinStats::default();
        let ix = pairs_of(
            &join_group_indexed(
                &entries,
                |_| 3,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_ix,
                &mut GroupScratch::new(),
            ),
            &entries,
        );
        assert_eq!(nl, ix);
    }

    #[test]
    fn indexed_skips_duplicate_ranking_ids_like_nested_loop() {
        // Regression: the indexed kernel used to verify (and emit) pairs of
        // entries carrying the same ranking id, which the nested-loop kernel
        // skips. Feed both kernels a group holding a duplicated ranking and
        // assert identical pair sets and identical candidate counts.
        let mut entries = group();
        entries.push(entry(2, &[2, 1, 3, 4, 5], 1)); // duplicate of id 2
        entries.push(entry(2, &[2, 1, 3, 4, 5], 1)); // and a third copy
        let stats_nl = JoinStats::default();
        let nl = pairs_of(
            &join_group_nested_loop(
                &entries,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_nl,
            ),
            &entries,
        );
        let stats_ix = JoinStats::default();
        let ix = pairs_of(
            &join_group_indexed(
                &entries,
                |_| 3,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_ix,
                &mut GroupScratch::new(),
            ),
            &entries,
        );
        assert_eq!(nl, ix);
        assert_eq!(
            stats_nl.snapshot().candidates,
            stats_ix.snapshot().candidates
        );
        // No emitted pair may relate a ranking id to itself.
        for &(i, j, _) in &join_group_indexed(
            &entries,
            |_| 3,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::SelfJoin,
            &JoinStats::default(),
            &mut GroupScratch::new(),
        ) {
            assert_ne!(entries[i].ranking.id(), entries[j].ranking.id());
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_groups() {
        // Run a big group, then a small unrelated one, through the same
        // scratch; the small group must behave exactly as with a cold
        // scratch.
        let mut scratch = GroupScratch::new();
        let big = group();
        join_group_indexed(
            &big,
            |_| 3,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::SelfJoin,
            &JoinStats::default(),
            &mut scratch,
        );
        let small = vec![entry(7, &[9, 8, 7, 6, 5], 9), entry(8, &[9, 8, 7, 6, 4], 9)];
        let stats_warm = JoinStats::default();
        let warm = pairs_of(
            &join_group_indexed(
                &small,
                |_| 3,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_warm,
                &mut scratch,
            ),
            &small,
        );
        let stats_cold = JoinStats::default();
        let cold = pairs_of(
            &join_group_indexed(
                &small,
                |_| 3,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::SelfJoin,
                &stats_cold,
                &mut GroupScratch::new(),
            ),
            &small,
        );
        assert_eq!(warm, cold);
        assert_eq!(
            stats_warm.snapshot().candidates,
            stats_cold.snapshot().candidates
        );
    }

    #[test]
    fn scratch_generation_wrap_resets_stamps() {
        let mut scratch = GroupScratch::new();
        scratch.begin_group(3);
        scratch.generation = u32::MAX - 1;
        scratch.seen_stamp = vec![u32::MAX, 0, u32::MAX - 1];
        assert_eq!(scratch.next_probe(), u32::MAX);
        // Wrap: stamps must be zeroed so nothing aliases generation 1.
        assert_eq!(scratch.next_probe(), 1);
        assert!(scratch.seen_stamp.iter().all(|&s| s == 0));
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
    fn indexed_verifies_each_pair_at_most_once() {
        // Entries share many prefix tokens; the seen-set must prevent
        // re-verification per collision.
        let entries = vec![entry(1, &[1, 2, 3, 4, 5], 1), entry(2, &[1, 2, 3, 4, 6], 1)];
        let stats = JoinStats::default();
        let results = join_group_indexed(
            &entries,
            |_| 5, // full prefix → 5 shared tokens
            &GroupThresholds::Uniform(110),
            false,
            JoinMode::SelfJoin,
            &stats,
            &mut GroupScratch::new(),
        );
        assert_eq!(results.len(), 1);
        assert_eq!(stats.snapshot().candidates, 1);
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
        assert_eq!(t.max(), 30);
        assert_eq!(GroupThresholds::Uniform(7).max(), 7);
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
        let results = join_group_rs(
            &left,
            &right,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::SelfJoin,
            &stats,
        );
        assert_eq!(results.len(), 1);
        let (i, j, d) = results[0];
        assert_eq!((left[i].ranking.id(), right[j].ranking.id(), d), (1, 2, 2));
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
        assert!(join_group_indexed(
            &one,
            |_| 2,
            &GroupThresholds::Uniform(5),
            true,
            JoinMode::SelfJoin,
            &stats,
            &mut GroupScratch::new()
        )
        .is_empty());
        assert!(join_group_rs(
            &one,
            &[],
            &GroupThresholds::Uniform(5),
            true,
            JoinMode::SelfJoin,
            &stats
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
    fn bipartite_indexed_matches_nested_loop() {
        let entries = bipartite_group();
        let stats_nl = JoinStats::default();
        let nl = relation_pairs_of(
            &join_group_nested_loop(
                &entries,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::Bipartite,
                &stats_nl,
            ),
            &entries,
        );
        let stats_ix = JoinStats::default();
        let ix = relation_pairs_of(
            &join_group_indexed(
                &entries,
                |_| 3,
                &GroupThresholds::Uniform(8),
                true,
                JoinMode::Bipartite,
                &stats_ix,
                &mut GroupScratch::new(),
            ),
            &entries,
        );
        assert_eq!(nl, ix);
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
        let results = join_group_rs(
            &left_chunk,
            &right_chunk,
            &GroupThresholds::Uniform(8),
            true,
            JoinMode::Bipartite,
            &stats,
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
