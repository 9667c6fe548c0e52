//! The one prefix-join dataflow: the *Ordering* phase, prefix emission, and
//! the token-grouped join that underlies VJ, VJ-NL, the clustering phase, the
//! centroid join, CL-P's repartitioned variants and the Jaccard and
//! variable-length joins.
//!
//! The dataflow mirrors §4 of the paper:
//!
//! ```text
//! rankings ─ count item frequencies per chunk ─ merge on the driver
//!          ─ broadcast order ─ canonicalize
//!          ─ emit (prefix-token, ranking) pairs ─ group by token
//!          ─ per-group join kernel, each pair kept by its one owning group
//! ```
//!
//! The count shuffles nothing: each chunk counts into one dense
//! [`FrequencyTable`] and the driver sums them. The group-by on prefix
//! tokens moves the entries it owns instead of cloning them, and each join
//! task frees its own groups.
//!
//! A pair whose prefixes share m tokens meets in m groups; only the group of
//! the smallest shared item keeps it (`owns`), so the output holds every
//! qualifying pair exactly once and no phase deduplicates it.
//!
//! Nothing in it depends on the distance. A `JoinSpace` supplies the three
//! things that do — a record's prefix length, whether its threshold admits
//! token-disjoint pairs, and the per-pair decision — and the number of input
//! relations decides between a self-join and a bipartite R-S join: the
//! self-join is the one-relation case of the same path.
//!
//! One [`SkewBudget`] says whether hot groups split: under a budget (CL-P's
//! partitioning threshold δ is `Fixed(δ)`), groups larger than it are split
//! into sub-partitions that are re-distributed with a composite
//! `(token, sub-key)` partitioner and joined pairwise with an R-S kernel —
//! Algorithm 3 / §6. The budget is resolved once, on the grouped tokens.

#![warn(clippy::indexing_slicing)]

use std::num::NonZeroUsize;
use std::sync::Arc;

use minispark::skew::{join_groups, split_grouped_join, GroupJoin};
use minispark::{Cluster, Dataset, SkewBudget};
use topk_rankings::{FrequencyTable, ItemId, OrderedRanking, PrefixKind, Ranking, Relation};

use crate::kernels::{cross_loop_by, nested_loop_by, JoinMode, JoinSpace, TokenEntry};
use crate::stats::{JoinStats, KernelCounts};

/// A qualifying pair with everything downstream phases need: both rankings
/// (shared `Arc`s), the exact distance (`u64` raw Footrule unless the space
/// says otherwise), the centroid-type tags and the source relations.
///
/// The pair is normalized by `(relation, id)`: in a self-join (both records
/// [`Relation::Left`]) `a.id() < b.id()` holds as before, and in a bipartite
/// R-S join `a` is always the left-relation record — id ordering alone
/// cannot identify the relation there because the two id spaces may overlap.
#[derive(Debug, Clone)]
pub struct PairHit<D = u64> {
    /// The record with the smaller `(relation, id)` key.
    pub a: Arc<OrderedRanking>,
    /// The record with the larger `(relation, id)` key.
    pub b: Arc<OrderedRanking>,
    /// The pair's distance in its space (raw Footrule by default).
    pub distance: D,
    /// Singleton tag of `a` (centroid joins only; `false` in self-joins).
    pub a_singleton: bool,
    /// Singleton tag of `b`.
    pub b_singleton: bool,
    /// Source relation of `a` ([`Relation::Left`] in self-joins).
    pub a_relation: Relation,
    /// Source relation of `b` ([`Relation::Left`] in self-joins).
    pub b_relation: Relation,
}

impl<D> PairHit<D> {
    /// The id pair `(a, b)`; `a < b` in self-joins, while in an R-S join
    /// this is `(left id, right id)` with no ordering guarantee.
    pub fn ids(&self) -> (u64, u64) {
        (self.a.id(), self.b.id())
    }

    /// The full record-identity pair. Relations are part of it because R and
    /// S id spaces may overlap.
    pub fn record_keys(&self) -> ((u8, u64), (u8, u64)) {
        (
            (self.a_relation.as_u8(), self.a.id()),
            (self.b_relation.as_u8(), self.b.id()),
        )
    }
}

/// Sentinel "token" under which rankings meet when the applicable threshold
/// admits **disjoint** pairs (`θ_raw ≥ k·(k+1)`, i.e. ω = 0). Prefix
/// filtering is inherently incomplete there — a disjoint qualifying pair
/// shares no token at all — so such rankings are additionally routed into
/// one group, which owns exactly the pairs whose prefixes share nothing.
/// Irrelevant for the paper's thresholds (θ ≤ 0.4) but required for a total
/// API.
pub const DISJOINT_SENTINEL: ItemId = ItemId::MAX;

/// Relation tag and stage-label infix of relation `i` of `n`: a lone
/// relation is the untagged self-join case.
fn relation_tag(i: usize, n: usize) -> (Relation, &'static str) {
    match (n, i) {
        (1, _) => (Relation::Left, ""),
        (_, 0) => (Relation::Left, "left-"),
        _ => (Relation::Right, "right-"),
    }
}

/// The *Ordering* phase over one relation (a self-join) or two (an R-S
/// join): counts item frequencies over the **union** of the relations — one
/// shared canonical order is what makes cross-relation prefix filtering
/// complete — broadcasts the resulting order once, and canonicalizes each
/// relation separately (§4 / §5 "Ordering"). With [`PrefixKind::Ordered`]
/// the frequency pass is skipped and rankings keep their rank order (Lemma
/// 4.1's prefix); every other kind needs the one global order.
///
/// The caller's rankings are read in place, chunked as `parallelize` would
/// chunk them ([`Cluster::map_chunks`]). Each chunk counts into one dense
/// [`FrequencyTable`], and the driver merges the per-chunk tables into the
/// one it broadcasts: the count needs no shuffle and no hashing of the
/// compact item ids.
///
/// The result is ready to join: a lone relation is the untagged self-join
/// source, two are the `Left` and `Right` sources of an R-S join.
pub(crate) fn order_relations(
    cluster: &Cluster,
    relations: &[&[Ranking]],
    prefix_kind: PrefixKind,
    partitions: usize,
    label: &str,
) -> Vec<PrefixSource> {
    let freq = (prefix_kind != PrefixKind::Ordered).then(|| {
        let tables = cluster.map_chunks(
            &format!("{label}/freq-emit"),
            relations,
            partitions,
            |_, chunk| vec![FrequencyTable::from_rankings(chunk)],
        );
        let parts = (0..tables.num_partitions()).flat_map(|p| tables.partition(p));
        cluster.broadcast(FrequencyTable::merge(parts))
    });
    let order = if freq.is_some() {
        "by-frequency"
    } else {
        "by-rank"
    };
    let canonical = |r: &Ranking| match &freq {
        Some(freq) => OrderedRanking::by_frequency(r, freq.value()),
        None => OrderedRanking::by_rank(r),
    };
    relations
        .iter()
        .enumerate()
        .map(|(i, &data)| {
            let (relation, name) = relation_tag(i, relations.len());
            let ordered = cluster.map_chunks(
                &format!("{label}/order-{name}{order}"),
                &[data],
                partitions,
                |_, chunk| chunk.iter().map(|r| Arc::new(canonical(r))).collect(),
            );
            PrefixSource {
                ordered,
                singleton: false,
                relation,
                name,
            }
        })
        .collect()
}

/// The *Ordering* phase of a self-join: `order_relations` over the one
/// relation (§4 / §5 "Ordering").
pub fn order_rankings(
    cluster: &Cluster,
    data: &[Ranking],
    prefix_kind: PrefixKind,
    partitions: usize,
    label: &str,
) -> Dataset<Arc<OrderedRanking>> {
    order_relations(cluster, &[data], prefix_kind, partitions, label)
        .pop()
        .expect("one relation in, one ordered dataset out")
        .ordered
}

/// Emits `(token, entry)` pairs for the first `prefix_len` tokens of every
/// ranking — the map side of the prefix-filtering shuffle. `relation` tags
/// every entry with its source relation ([`Relation::Left`] in self-joins).
pub fn emit_prefixes(
    ds: &Dataset<Arc<OrderedRanking>>,
    prefix_len: usize,
    singleton: bool,
    relation: Relation,
    label: &str,
) -> Dataset<(ItemId, TokenEntry)> {
    emit_prefixes_by(ds, move |_| prefix_len, false, singleton, relation, label)
}

/// [`emit_prefixes`] with a per-record prefix length, and with `sentinel`
/// one more entry per ranking under [`DISJOINT_SENTINEL`].
///
/// A task writes its partition's entries into one `Vec`, sized up front from
/// the records' prefix lengths, which it reads first.
fn emit_prefixes_by(
    ds: &Dataset<Arc<OrderedRanking>>,
    prefix_len_of: impl Fn(&OrderedRanking) -> usize + Sync,
    sentinel: bool,
    singleton: bool,
    relation: Relation,
    label: &str,
) -> Dataset<(ItemId, TokenEntry)> {
    ds.map_partitions(label, |records| {
        let lens: Vec<usize> = records
            .iter()
            .map(|r| r.prefix(prefix_len_of(r)).len())
            .collect();
        let sentinels = if sentinel { records.len() } else { 0 };
        let mut out = Vec::with_capacity(lens.iter().sum::<usize>() + sentinels);
        for (r, &len) in records.iter().zip(&lens) {
            let prefix_len = u16::try_from(len).unwrap_or(u16::MAX);
            out.extend(tokens(r.prefix(len), sentinel).map(|(token, rank)| {
                let entry = TokenEntry {
                    rank,
                    prefix_len,
                    singleton,
                    relation,
                    ranking: Arc::clone(r),
                };
                (token, entry)
            }));
        }
        out
    })
}

/// The `(token, original rank)` pairs a record meets its partners under, as
/// the batch joins emit them and the index posts and probes them: its
/// emitted `prefix` and, with `sentinel`, the [`DISJOINT_SENTINEL`] at rank 0.
pub(crate) fn tokens(
    prefix: &[(ItemId, u16)],
    sentinel: bool,
) -> impl Iterator<Item = (ItemId, u16)> + '_ {
    prefix
        .iter()
        .copied()
        .chain(sentinel.then_some((DISJOINT_SENTINEL, 0)))
}

/// One input of a prefix join: a canonicalized dataset and the tags its
/// records carry through the shuffle.
pub(crate) struct PrefixSource {
    /// The canonicalized records. All sources of one join must share one
    /// canonical order ([`order_relations`]) or prefix filtering would lose
    /// completeness.
    pub ordered: Dataset<Arc<OrderedRanking>>,
    /// Centroid-type tag of every record (Algorithm 1); `false` otherwise.
    pub singleton: bool,
    /// Source relation of every record.
    pub relation: Relation,
    /// Stage-label infix naming the source (`""`, `"left-"`, `"cm-"`, …).
    pub name: &'static str,
}

impl PrefixSource {
    /// The lone, untagged source of a plain self-join.
    pub(crate) fn plain(ordered: &Dataset<Arc<OrderedRanking>>) -> Self {
        Self {
            ordered: ordered.clone(),
            singleton: false,
            relation: Relation::Left,
            name: "",
        }
    }

    /// The two sources of a centroid join (Algorithm 1): non-singleton
    /// centroids `C_m` and singleton-tagged centroids `C_s`.
    pub(crate) fn centroids(
        centroids_m: &Dataset<Arc<OrderedRanking>>,
        singletons: &Dataset<Arc<OrderedRanking>>,
    ) -> [Self; 2] {
        let tagged = |ordered, singleton, name| Self {
            singleton,
            name,
            ..Self::plain(ordered)
        };
        [
            tagged(centroids_m, false, "cm-"),
            tagged(singletons, true, "cs-"),
        ]
    }
}

/// A complete prefix-filtered join in `space` — the building block used
/// directly by the VJ-family drivers and twice by CL/CL-P (clustering with
/// θc, centroid join with Algorithm 1's thresholds).
///
/// Every source emits its tagged prefixes into one shuffle — plus, where the
/// space admits token-disjoint pairs, an entry into the sentinel group. With
/// a [`Relation::Right`] source present the join is bipartite — only
/// cross-relation pairs are candidates and hits lead with the left record —
/// otherwise it is a self-join; hot groups use the skew subsystem's
/// chunk-pair plans either way.
///
/// Returns what `hit` keeps of every qualifying pair — called with the
/// pair's entries in `(relation, id)` order and its distance — **exactly
/// once**: a pair that collides on several tokens is kept only by the group
/// that [`owns`] it, and the chunks of a split group inherit its ownership.
/// The flat drivers keep the id pair, which is their output; CL's phases
/// keep whole [`PairHit`]s ([`prefix_join`]).
pub(crate) fn prefix_hits<S: JoinSpace, H: Clone + Send + Sync + 'static>(
    sources: &[PrefixSource],
    space: &S,
    partitions: usize,
    skew: SkewBudget,
    stats: &Arc<JoinStats>,
    label: &str,
    hit: impl Fn(&TokenEntry, &TokenEntry, S::Dist) -> H + Sync,
) -> Dataset<H> {
    let emitted = sources
        .iter()
        .map(|src| {
            emit_prefixes_by(
                &src.ordered,
                |r| space.prefix_len(r, src.singleton),
                space.admits_disjoint(src.singleton),
                src.singleton,
                src.relation,
                &format!("{label}/emit-{}prefixes", src.name),
            )
        })
        .reduce(|all, part| all.union(&part))
        .expect("a prefix join has at least one source");
    let mode = if sources.iter().any(|src| src.relation == Relation::Right) {
        JoinMode::Bipartite
    } else {
        JoinMode::SelfJoin
    };
    token_grouped_join(emitted, space, mode, partitions, skew, stats, label, hit)
}

/// [`prefix_hits`] keeping every hit whole — what the clustering and
/// centroid joins of CL/CL-P need. Record keys `(relation, id)` must be
/// unique across `sources`: each qualifying pair then comes out once, and
/// debug builds check that it does.
pub(crate) fn prefix_join<S: JoinSpace>(
    sources: &[PrefixSource],
    space: &S,
    partitions: usize,
    skew: SkewBudget,
    stats: &Arc<JoinStats>,
    label: &str,
) -> Dataset<PairHit<S::Dist>> {
    let whole = |x: &TokenEntry, y: &TokenEntry, distance| {
        let hit = PairHit {
            a: Arc::clone(&x.ranking),
            b: Arc::clone(&y.ranking),
            distance,
            a_singleton: x.singleton,
            b_singleton: y.singleton,
            a_relation: x.relation,
            b_relation: y.relation,
        };
        let keys = hit.record_keys();
        crate::invariants::check_tagged_pair_normalized(keys.0, keys.1);
        hit
    };
    // A split join's output is the union of its small-group and join-unit
    // stages, three times `partitions`; CL's later stages run a task per
    // partition, so bring it back to `partitions`.
    let hits =
        prefix_hits(sources, space, partitions, skew, stats, label, whole).coalesce(partitions);
    if cfg!(debug_assertions) {
        let mut keys: Vec<_> = (0..hits.num_partitions())
            .flat_map(|p| hits.partition(p).iter().map(PairHit::record_keys))
            .collect();
        keys.sort_unstable();
        debug_assert!(
            keys.is_sorted_by(|a, b| a < b),
            "{label}: a pair came out twice — a record key repeats across the sources"
        );
    }
    hits
}

/// Whether the group of `token` owns the pair of two records whose emitted
/// prefixes are `a` and `b`: `token` is the smallest item id in `a ∩ b`.
/// The lengths may differ: weighted prefixes are per record, Lemma 5.3's
/// per centroid type, and the index pairs a stored prefix with a query's.
/// For the [`DISJOINT_SENTINEL`], larger than every item, that means the
/// prefixes share nothing.
///
/// Exactly one group owns a pair both records reach: prefix filtering puts
/// every qualifying pair in some shared token's group (or the sentinel's),
/// the smallest shared item's group holds both records too, and the
/// per-pair decision does not depend on the group. Item ids order every
/// prefix kind alike — a ranking's own canonical order would not, because
/// rank-ordered prefixes have no global order.
///
/// O(p²) over prefixes of p ≤ k items: per result in the group kernels,
/// which ask only for accepted pairs, and in the index per reached record
/// whose signature may hold a smaller query-prefix item (the others are
/// owned without it).
pub(crate) fn owns(token: ItemId, a: &[(ItemId, u16)], b: &[(ItemId, u16)]) -> bool {
    !a.iter()
        .any(|&(item, _)| item < token && b.iter().any(|&(other, _)| other == item))
}

/// The per-pair decision of `token`'s group (or of a chunk of it): the
/// space's, keeping only the qualifying pairs the group [`owns`]. A pair
/// another group owns stays a verified candidate and is not a result here.
fn owned_decision<S: JoinSpace>(
    space: &S,
    token: ItemId,
) -> impl Fn(&TokenEntry, &TokenEntry, &mut KernelCounts) -> Option<S::Dist> + '_ {
    move |a, b, counts| {
        let distance = space.decide(a, b, counts)?;
        if owns(token, a.prefix(), b.prefix()) {
            Some(distance)
        } else {
            counts.disown();
            None
        }
    }
}

/// Keeps `hit` of a qualifying pair, its entries in `(relation, id)` order:
/// chunks of a bipartite group hold mixed relations with possibly
/// overlapping id spaces, and id order alone could flip which relation
/// leads. (In-group pairs arrive ordered already.)
fn ordered_hit<D, H>(
    x: &TokenEntry,
    y: &TokenEntry,
    distance: D,
    hit: &impl Fn(&TokenEntry, &TokenEntry, D) -> H,
) -> H {
    if x.record_key() < y.record_key() {
        hit(x, y, distance)
    } else {
        hit(y, x, distance)
    }
}

/// The token groups' join as the engine runs it: a task joins its groups
/// (or the join units of split ones) one after the other, each keeping the
/// pairs its token owns, books every group's counters into one
/// [`KernelCounts`] and flushes it into `stats` once, when it is done.
struct TokenJoin<'a, S, F> {
    space: &'a S,
    mode: JoinMode,
    stats: &'a JoinStats,
    /// What a qualifying pair is kept as.
    hit: F,
    /// The chunk budget of a split join, checked on every in-group join.
    budget: Option<usize>,
}

impl<S, H, F> GroupJoin<ItemId, TokenEntry> for TokenJoin<'_, S, F>
where
    S: JoinSpace,
    H: Send + Sync + 'static,
    F: Fn(&TokenEntry, &TokenEntry, S::Dist) -> H + Sync,
{
    type Out = H;
    type Task = KernelCounts;

    fn self_join(
        &self,
        counts: &mut KernelCounts,
        &token: &ItemId,
        entries: &[TokenEntry],
        out: &mut Vec<H>,
    ) {
        if let Some(budget) = self.budget {
            crate::invariants::check_subpartition(entries.len(), budget);
        }
        let decide = owned_decision(self.space, token);
        nested_loop_by(entries, self.mode, counts, decide, |i, j, distance| {
            #[expect(
                clippy::indexing_slicing,
                reason = "the kernel emits indices into its input — i, j < entries.len()"
            )]
            out.push(ordered_hit(&entries[i], &entries[j], distance, &self.hit));
        });
    }

    fn cross_join(
        &self,
        counts: &mut KernelCounts,
        &token: &ItemId,
        left: &[TokenEntry],
        right: &[TokenEntry],
        out: &mut Vec<H>,
    ) {
        let decide = owned_decision(self.space, token);
        cross_loop_by(left, right, self.mode, counts, decide, |i, j, distance| {
            #[expect(
                clippy::indexing_slicing,
                reason = "the kernel emits indices into its inputs — i < left.len(), j < right.len()"
            )]
            out.push(ordered_hit(&left[i], &right[j], distance, &self.hit));
        });
    }

    fn finish(&self, counts: KernelCounts) {
        counts.flush(self.stats);
    }
}

/// The reduce side of every prefix join: group emitted `(token, entry)`
/// pairs by token and join inside each group, keeping `hit(a, b, distance)`
/// of every qualifying pair (see [`prefix_hits`]).
///
/// It consumes `emitted`: the group-by moves the entries into its sorted
/// runs ([`minispark::Groups`]), one block of entries per reduce partition,
/// and, when no group splits, each join task frees its own partition.
///
/// When `skew` resolves to a budget ([`SkewBudget::resolve`], on the run
/// lengths — `Fixed(δ)` is CL-P's Algorithm 3) groups longer than it are
/// split into sub-partitions of at most that many entries: each
/// sub-partition is self-joined after being re-distributed with a composite
/// partitioner, and every sub-partition pair is R-S-joined — spreading one
/// hot token's work over the whole cluster. The splitting itself lives in
/// [`minispark::skew::split_grouped_join`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn token_grouped_join<S: JoinSpace, H: Clone + Send + Sync + 'static>(
    emitted: Dataset<(ItemId, TokenEntry)>,
    space: &S,
    mode: JoinMode,
    partitions: usize,
    skew: SkewBudget,
    stats: &Arc<JoinStats>,
    label: &str,
    hit: impl Fn(&TokenEntry, &TokenEntry, S::Dist) -> H + Sync,
) -> Dataset<H> {
    // Spark can spill shuffle groups to disk when executor memory runs low
    // (the property §4.1 argues iterator-style processing preserves); the
    // engine reproduces that when the cluster config sets a spill budget.
    let name = format!("{label}/group-by-token");
    let grouped = if emitted.cluster().config().spill_record_budget != usize::MAX {
        emitted.group_runs_spilling(&name, partitions)
    } else {
        emitted.into_group_runs(&name, partitions)
    };
    let budget = skew.resolve(&grouped);
    let join = TokenJoin {
        space,
        mode,
        stats,
        hit,
        budget: budget.map(NonZeroUsize::get),
    };
    let Some(budget) = budget else {
        return join_groups(grouped, &format!("{label}/join-groups"), &join);
    };
    let (hits, split) = split_grouped_join(&grouped, budget, partitions, label, &join);
    JoinStats::add(&stats.posting_lists_split, split.groups_split);
    JoinStats::add(&stats.rs_joins, split.rs_joins);
    JoinStats::add(&stats.skew_chunks, split.chunks);
    JoinStats::add(&stats.skew_steals, split.stolen_tasks);
    hits
}

/// Validates that all rankings share one length `k` and have unique ids;
/// returns the length (`None` for an empty dataset).
///
/// The error names the first offending ranking in input order: one whose
/// length differs from the first ranking's, or whose id an earlier ranking
/// holds; a ranking that is both reports its length. The ids are checked
/// without hashing, by sorting them, which is linear when they arrive
/// ascending (or descending); only a repeated id looks for its first
/// repetition.
pub fn uniform_k(data: &[Ranking]) -> Result<Option<usize>, crate::JoinError> {
    let Some(first) = data.first() else {
        return Ok(None);
    };
    let expected = first.k();
    let mismatch = data
        .iter()
        .enumerate()
        .find(|(_, r)| r.k() != expected)
        .map(|(pos, r)| (pos, r.k()));
    let mut ids: Vec<u64> = data.iter().map(Ranking::id).collect();
    ids.sort_unstable();
    ids.dedup();
    let duplicate = (ids.len() < data.len())
        .then(|| first_repeated_id(data))
        .flatten();
    match (mismatch, duplicate) {
        (Some((pos, found)), dup) if dup.is_none_or(|(at, _)| pos <= at) => {
            Err(crate::JoinError::MixedRankingLengths { expected, found })
        }
        (_, Some((_, id))) => Err(crate::JoinError::DuplicateRankingId(id)),
        (_, None) => Ok(Some(expected)),
    }
}

/// The position and id of the first ranking whose id an earlier ranking
/// holds: sorted by `(id, position)`, each repeated id's second position,
/// the smallest of them.
fn first_repeated_id(data: &[Ranking]) -> Option<(usize, u64)> {
    let mut ids: Vec<(u64, usize)> = data.iter().map(Ranking::id).zip(0..).collect();
    ids.sort_unstable();
    ids.iter()
        .zip(ids.iter().skip(1))
        .filter(|(a, b)| a.0 == b.0)
        .map(|(_, &(id, pos))| (pos, id))
        .min()
}

/// Validates every relation of a join: uniform length and unique ids
/// **within** each relation (the id spaces may overlap across relations),
/// and one shared length `k` across them. Returns that length, or `None`
/// when any relation is empty — a join with an empty side has no results,
/// so callers short-circuit to an empty outcome.
pub(crate) fn uniform_k_of(relations: &[&[Ranking]]) -> Result<Option<usize>, crate::JoinError> {
    let mut shared = None;
    let mut any_empty = false;
    for data in relations {
        match (shared, uniform_k(data)?) {
            (_, None) => any_empty = true,
            (Some(expected), Some(found)) if expected != found => {
                return Err(crate::JoinError::MixedRankingLengths { expected, found })
            }
            (_, k) => shared = k,
        }
    }
    Ok(if any_empty { None } else { shared })
}

/// `uniform_k_of` for the two relations of an R-S join: their shared length
/// `k`, or `None` when either side is empty.
pub fn rs_uniform_k(
    left: &[Ranking],
    right: &[Ranking],
) -> Result<Option<usize>, crate::JoinError> {
    uniform_k_of(&[left, right])
}
