//! The *Ordering* phase: canonical reordering of ranking items by global
//! frequency (§4 and §5 of the paper).
//!
//! Prefix filtering requires all rankings to list their items in one common
//! canonical order. The paper orders items by **increasing frequency** of
//! occurrence in the dataset ("most real world datasets follow a skewed
//! distribution […] reordering the rankings by the item's frequency leads to
//! major performance gains"), so rare items land in the prefix and posting
//! lists stay short. The reordering only determines *which items form the
//! prefix*; the original ranks are preserved alongside each item because the
//! Footrule distance is computed over them.

#![warn(clippy::indexing_slicing)]

use std::collections::HashMap;

use crate::distance::footrule_sorted_within;
use crate::ranking::{ItemId, Ranking, RankingId};

/// Per-item occurrence counts over a dataset, defining the canonical order.
///
/// The canonical order is `(count, item)` ascending — ties are broken by item
/// id, which the paper leaves arbitrary ("ties are arbitrarily broken") but a
/// deterministic tiebreak makes runs reproducible. Items the table has never
/// counted (count 0) come first, by id.
///
/// The counts are stored **densely**: `dense[i]` is the count of item `i`
/// for every `i` below a bound fixed when the table is built, `min(max id +
/// 1, 4 · occurrences + 1024)`. Corpora number their items compactly, so
/// counting or looking up an item is one array access, with no hashing, and
/// canonicalizing a ranking reads one `u64` per item. Items at or above the
/// bound go in a keyed map, so ids from outside still count and the dense
/// part stays O(occurrences): a serving index counts rankings that arrived
/// over HTTP, with arbitrary `u32` ids, which is also why the map keeps
/// std's keyed hasher.
///
/// Counts saturate at `u64::MAX` rather than wrap, and
/// [`FrequencyTable::order_key`] is wide enough for any `u64` count, so the
/// order is exactly `(count, item)` for every table that can be built.
#[derive(Debug, Clone, Default)]
pub struct FrequencyTable {
    /// The count of item `i` for every `i < dense.len()`, the bound.
    dense: Vec<u64>,
    /// The counts of the counted items at or above the bound.
    keyed: HashMap<ItemId, u64>,
    /// The sum of every count, saturating: the occurrences the table was
    /// sized for, which its builders then count.
    occurrences: u64,
}

impl FrequencyTable {
    /// An empty table whose dense part is sized for `occurrences`
    /// occurrences of items up to `max_item`, which the caller then adds.
    fn sized(max_item: Option<ItemId>, occurrences: u64) -> Self {
        let cap = occurrences.saturating_mul(4).saturating_add(1024);
        let bound = max_item.map_or(0, |max| (u64::from(max) + 1).min(cap));
        Self {
            dense: vec![0; usize::try_from(bound).unwrap_or(usize::MAX)],
            keyed: HashMap::new(),
            occurrences,
        }
    }

    /// The largest counted item, read off the table's shape: the keyed
    /// part's largest id if it has one, else the last dense slot. A bound
    /// below `max id + 1` puts the largest id in the keyed part, and a bound
    /// of `max id + 1` makes it the last dense slot.
    fn max_item(&self) -> Option<ItemId> {
        let last_dense = self.dense.len().checked_sub(1);
        self.keyed
            .keys()
            .copied()
            .max()
            .or_else(|| last_dense.and_then(|last| ItemId::try_from(last).ok()))
    }

    /// Adds `count` occurrences of `item`.
    #[inline]
    fn add(&mut self, item: ItemId, count: u64) {
        let slot = match self.dense.get_mut(item as usize) {
            Some(slot) => slot,
            None => self.keyed.entry(item).or_default(),
        };
        *slot = slot.saturating_add(count);
    }

    /// Every counted item with its count: the dense part by id, then the
    /// keyed map in its own order.
    fn counted(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.dense
            .iter()
            .zip(0..)
            .map(|(&count, item)| (item, count))
            .chain(self.keyed.iter().map(|(&item, &count)| (item, count)))
            .filter(|&(_, count)| count > 0)
    }

    /// Builds the table by counting item occurrences across `rankings`: one
    /// pass sizes the dense part, a second counts.
    pub fn from_rankings<'a, I>(rankings: I) -> Self
    where
        I: IntoIterator<Item = &'a Ranking>,
        I::IntoIter: Clone,
    {
        let rankings = rankings.into_iter();
        let (max_item, occurrences) = rankings.clone().fold((None, 0u64), |(max, sum), r| {
            (r.items().iter().copied().max().max(max), sum + r.k() as u64)
        });
        let mut table = Self::sized(max_item, occurrences);
        for ranking in rankings {
            for &item in ranking.items() {
                table.add(item, 1);
            }
        }
        table
    }

    /// Sums tables counted over parts of one dataset — the per-chunk tables
    /// of the ordering phase — into the table of the whole: the counts, and
    /// the dense bound, of counting the whole at once.
    ///
    /// Each part is read once, when its counts are added. The whole's
    /// occurrences and largest item, which size it, come from what every
    /// part keeps: its occurrence total and its shape (the keyed ids, else
    /// the dense tail), not from scanning its counts.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a FrequencyTable>) -> Self {
        let parts: Vec<&FrequencyTable> = parts.into_iter().collect();
        let occurrences = parts
            .iter()
            .fold(0u64, |sum, part| sum.saturating_add(part.occurrences));
        let max_item = parts.iter().filter_map(|part| part.max_item()).max();
        let mut table = Self::sized(max_item, occurrences);
        for part in parts {
            // A part's bound is the same minimum over arguments no larger
            // than the whole's, so its dense part adds slot by slot.
            debug_assert!(part.dense.len() <= table.dense.len());
            for (slot, &count) in table.dense.iter_mut().zip(&part.dense) {
                *slot = slot.saturating_add(count);
            }
            for (&item, &count) in &part.keyed {
                table.add(item, count);
            }
        }
        table
    }

    /// Occurrence count of `item` (0 if never seen).
    #[inline]
    pub fn count(&self, item: ItemId) -> u64 {
        match self.dense.get(item as usize) {
            Some(&count) => count,
            None => self.keyed.get(&item).copied().unwrap_or(0),
        }
    }

    /// The canonical sort key of `item`, `count << 32 | item`: keys ascend
    /// in the canonical order — uncounted items (count 0) by id, then
    /// counted ones by `(count, item)`. 96 bits, so every `u64` count keeps
    /// its place.
    #[inline]
    pub fn order_key(&self, item: ItemId) -> u128 {
        u128::from(self.count(item)) << 32 | u128::from(item)
    }

    /// Number of distinct items counted.
    pub fn distinct_items(&self) -> usize {
        self.counted().count()
    }

    /// Total number of item occurrences (saturating at `u64::MAX`).
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences
    }

    /// Relative frequencies of all items, descending — the input shape for
    /// [`crate::bounds::expected_posting_list_len`].
    #[expect(
        clippy::cast_precision_loss,
        reason = "occurrence counts are far below 2^53 — exact in f64"
    )]
    pub fn relative_frequencies(&self) -> Vec<f64> {
        let total = self.total_occurrences() as f64;
        let mut counts: Vec<u64> = self.counted().map(|(_, count)| count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
            .into_iter()
            .map(|count| count as f64 / total)
            .collect()
    }
}

/// A ranking in canonical form: `(item, original_rank)` pairs sorted either
/// by ascending global frequency ([`OrderedRanking::by_frequency`]) or by the
/// original rank ([`OrderedRanking::by_rank`], the form used with the ordered
/// prefix of Lemma 4.1).
///
/// This mirrors the paper's transformation of rankings into "arrays of
/// `(i_id, τ(i))` pairs" (§4) — the prefix is a slice of the head, while the
/// attached original ranks keep the Footrule distance computable.
///
/// Besides the canonical-order pairs, every `OrderedRanking` carries a
/// one-time **item-sorted shadow view** of the same pairs. Verification is
/// the dominant join cost (§7), and with both sides item-sorted the
/// Footrule computation becomes a two-pointer merge
/// ([`crate::distance::footrule_sorted_within`]) — O(k) per candidate
/// instead of the naive O(k²) scan. The shadow is built once at
/// construction (amortized over every candidate the ranking appears in) and
/// is a pure function of the canonical pairs, so equality/hashing stays
/// consistent. Both live in **one** slice of length `2k`: the canonical
/// pairs first ([`OrderedRanking::pairs`]), the shadow behind them
/// ([`OrderedRanking::pairs_by_item`]) — one allocation, not two.
/// [`OrderedRanking::by_frequency`] fills both halves in place: for a
/// ranking of up to 32 items a pair's slot in either order is the number of
/// smaller keys (or smaller ids), so nothing is sorted and no key buffer is
/// allocated; longer rankings sort.
///
/// It also carries a 128-bit **overlap signature** (*beyond the paper*): one
/// bit per item through a fixed multiplicative hash, and `lost`, the number
/// of items whose bit another item of the same ranking already set. Two
/// signatures bound the number of shared items from above in O(1)
/// ([`OrderedRanking::overlap_upper_bound`]). Four 64-bit **weight planes**
/// say where the items sit: an item's signature bit folded to 64
/// (`bit & 63`) is set in plane `j` when bit `j` of its scaled weight
/// `(k − rank) >> s` is, with `s` the smallest shift that fits `k` in four
/// bits (0 for every `k ≤ 15`). Outside the bits the two signatures share
/// they bound the rank weight of the items the other ranking certainly
/// lacks from below, also in O(1)
/// ([`OrderedRanking::absent_weight_lower_bound`]). That lets
/// [`crate::verify::verify_candidate`] reject most candidates through the
/// paper's own overlap bound, and most of the rest by where the absent
/// items rank, before the merge starts.
///
/// The private `build` is the **only constructor**: the shadow, the
/// signature and the planes are always computed from the canonical pairs,
/// never accepted from outside (a stale signature would silently drop
/// results).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderedRanking {
    id: RankingId,
    /// The `k` canonical pairs, then the same pairs sorted by item.
    pairs: Box<[(ItemId, u16)]>,
    /// Plane `j`: the folded signature bits of the items whose scaled
    /// weight has bit `j` set.
    planes: [u64; 4],
    /// Two words, not a `u128`, whose alignment would pad the struct.
    signature: [u64; 2],
    /// `k − popcount(signature)`.
    lost: u16,
}

/// The signature bit of `item`: the top seven bits of a Fibonacci
/// (multiplicative) hash, as `(word, mask)`.
#[inline]
fn signature_bit(item: ItemId) -> (usize, u64) {
    let bit = item.wrapping_mul(0x9E37_79B9) >> 25;
    ((bit >> 6) as usize, 1 << (bit & 63))
}

/// The signature bits of a set of items, in the words of
/// [`OrderedRanking`]'s overlap signature: what
/// [`OrderedRanking::may_hold_any`] tests a ranking against. Collect it
/// from the items.
///
/// An item sets the one bit it sets in the signature of every ranking that
/// holds it, so a ranking whose signature shares no bit with the set holds
/// none of its items. Distinct items may share a bit, so a shared bit proves
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemBits([u64; 2]);

impl FromIterator<ItemId> for ItemBits {
    #[expect(
        clippy::indexing_slicing,
        reason = "word is the high bit of a 7-bit value — 0 or 1"
    )]
    fn from_iter<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut bits = [0u64; 2];
        for item in items {
            let (word, mask) = signature_bit(item);
            bits[word] |= mask;
        }
        Self(bits)
    }
}

/// The right shift `s` that scales the weights `1..=k` of a length-`k`
/// ranking into four bits: `bit_length(k) − 4`, saturating at 0.
#[inline]
fn weight_shift(k: usize) -> u32 {
    (usize::BITS - k.leading_zeros()).saturating_sub(4)
}

/// The overlap signature of a pair list, how many of its items it lost to
/// collisions among themselves, and its weight planes: the signature bit of
/// the item at rank `r`, folded to 64, goes into plane `j` when bit `j` of
/// `(k − r) >> s` is set. One hash per item serves all three.
fn sign(pairs: &[(ItemId, u16)]) -> ([u64; 2], u16, [u64; 4]) {
    let k = pairs.len();
    let shift = weight_shift(k);
    let mut signature = [0u64; 2];
    let mut planes = [0u64; 4];
    #[expect(
        clippy::indexing_slicing,
        reason = "word is the high bit of a 7-bit value — 0 or 1"
    )]
    for &(item, rank) in pairs {
        let (word, mask) = signature_bit(item);
        signature[word] |= mask;
        let weight = (k - usize::from(rank)) >> shift;
        for (j, plane) in planes.iter_mut().enumerate() {
            if weight >> j & 1 == 1 {
                *plane |= mask;
            }
        }
    }
    let distinct_bits = signature[0].count_ones() + signature[1].count_ones();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "0 ≤ k − popcount ≤ k ≤ MAX_K = u16::MAX; every set bit came from an item, so popcount ≤ k"
    )]
    let lost = (k - distinct_bits as usize) as u16;
    (signature, lost, planes)
}

/// Test fixture for this module and [`crate::verify`]: the first `n ≤ 64`
/// item ids whose signature bits are pairwise distinct even folded to 64
/// (`distinct`), or all equal to item 0's (`!distinct`).
#[cfg(test)]
pub(crate) fn items_by_signature_bit(n: usize, distinct: bool) -> Vec<ItemId> {
    let mut folded = Vec::new();
    (0..)
        .filter(|&item| {
            let bit = signature_bit(item);
            let keep = if distinct {
                !folded.contains(&bit.1)
            } else {
                bit == signature_bit(0)
            };
            folded.push(bit.1);
            keep
        })
        .take(n)
        .collect()
}

/// Test fixture for this module and [`crate::verify`]: the first item whose
/// signature bit differs from `item`'s by exactly 64, so that the two share
/// a folded bit.
#[cfg(test)]
pub(crate) fn fold_partner(item: ItemId) -> ItemId {
    let (word, mask) = signature_bit(item);
    (0..)
        .find(|&other| signature_bit(other) == (1 - word, mask))
        .expect("the hash reaches both words")
}

/// Test fixture for this module and [`crate::verify`]: a partner for
/// `pool[..k]` sharing exactly its first `o` items, at the same ranks, with
/// `k − o` private items from the rest of the pool below.
#[cfg(test)]
pub(crate) fn sharing(pool: &[ItemId], k: usize, o: usize) -> OrderedRanking {
    let items: Vec<ItemId> = pool[..o]
        .iter()
        .chain(&pool[k..2 * k - o])
        .copied()
        .collect();
    OrderedRanking::by_rank(&Ranking::new_unchecked(2, items))
}

/// The longest ranking [`OrderedRanking::by_frequency`] canonicalizes by
/// counting, not sorting. Counting costs `k²` compares per order, sorting
/// `k log k` and an allocation. On `dblp_like` corpora of a million items,
/// one thread of a 2-vCPU x86-64 host, best of seven runs: counting takes
/// a record from 440–480 to 270–325 ns at `k = 10` and from 1 240–1 310 to
/// 900–990 ns at `k = 25`, breaks even near 1 700 ns at `k = 32`, and is
/// 1.8× slower at `k = 64`. At 32 its `u128` keys fill 512 bytes of stack.
const COUNTED_ORDER_MAX_K: usize = 32;

/// `pairs` (the `k` canonical pairs, with room for `k` more) followed by
/// their item-sorted shadow.
fn with_shadow(mut pairs: Vec<(ItemId, u16)>) -> Vec<(ItemId, u16)> {
    let k = pairs.len();
    pairs.reserve_exact(k);
    pairs.extend_from_within(..);
    pairs.split_at_mut(k).1.sort_unstable();
    pairs
}

impl OrderedRanking {
    /// Takes the `2k` pairs — the `k` canonical pairs, then the same pairs
    /// sorted by item — and derives the signature and planes from them.
    fn build(id: RankingId, pairs: Vec<(ItemId, u16)>) -> Self {
        let (signature, lost, planes) = sign(pairs.split_at(pairs.len() / 2).0);
        Self {
            id,
            pairs: pairs.into_boxed_slice(),
            planes,
            signature,
            lost,
        }
    }

    /// Canonicalizes `ranking` by ascending item frequency (the default for
    /// VJ-style joins with the weighted or the count prefix).
    ///
    /// The canonical order is ascending [`FrequencyTable::order_key`], one
    /// table lookup per item. A ranking's items are distinct, so are their
    /// keys, and up to `COUNTED_ORDER_MAX_K` (32) items an item's place in
    /// either order is the number of items before it: smaller keys for the
    /// canonical pairs, smaller ids for the shadow. Each pair is written
    /// straight into its slot of the one `2k` slice, with no key buffer and
    /// no data-dependent branch. Longer rankings sort `(count, item)` — the
    /// same order — and sort the shadow behind it.
    pub fn by_frequency(ranking: &Ranking, freq: &FrequencyTable) -> Self {
        let items = ranking.items();
        let k = items.len();
        if k > COUNTED_ORDER_MAX_K {
            return Self::by_frequency_sorted(ranking, freq);
        }
        let mut key_buf = [0u128; COUNTED_ORDER_MAX_K];
        let keys = key_buf.split_at_mut(k).0;
        for (key, &item) in keys.iter_mut().zip(items) {
            *key = freq.order_key(item);
        }
        let mut pairs = vec![(0, 0); 2 * k];
        let (canonical, by_item) = pairs.split_at_mut(k);
        for ((&key, &item), rank) in keys.iter().zip(items).zip(0u16..) {
            let slot: usize = keys.iter().map(|&other| usize::from(other < key)).sum();
            let item_slot: usize = items.iter().map(|&other| usize::from(other < item)).sum();
            if let Some(pair) = canonical.get_mut(slot) {
                *pair = (item, rank);
            }
            if let Some(pair) = by_item.get_mut(item_slot) {
                *pair = (item, rank);
            }
        }
        Self::build(ranking.id(), pairs)
    }

    /// [`OrderedRanking::by_frequency`] past `COUNTED_ORDER_MAX_K` items:
    /// sorts `(count, item, rank)` on `(count, item)`, which is sorting on
    /// `order_key`, with one table lookup per item, not one per comparison.
    /// The keys of distinct items are distinct, so the unstable sort is
    /// exact.
    fn by_frequency_sorted(ranking: &Ranking, freq: &FrequencyTable) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rank < k ≤ MAX_K = u16::MAX by Ranking's construction invariant"
        )]
        let mut keyed: Vec<(u64, ItemId, u16)> = ranking
            .iter_with_ranks()
            .map(|(item, rank)| (freq.count(item), item, rank as u16))
            .collect();
        keyed.sort_unstable_by_key(|&(count, item, _)| (count, item));
        let mut pairs = Vec::with_capacity(2 * keyed.len());
        pairs.extend(keyed.into_iter().map(|(_, item, rank)| (item, rank)));
        Self::build(ranking.id(), with_shadow(pairs))
    }

    /// Keeps the original rank order — the canonical form for the **ordered
    /// prefix** (Lemma 4.1), whose prefix is the best-ranked items.
    pub fn by_rank(ranking: &Ranking) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rank < k ≤ MAX_K = u16::MAX by Ranking's construction invariant"
        )]
        let ranked = ranking
            .iter_with_ranks()
            .map(|(item, rank)| (item, rank as u16));
        let mut pairs = Vec::with_capacity(2 * ranking.k());
        pairs.extend(ranked);
        Self::build(ranking.id(), with_shadow(pairs))
    }

    /// Rebuilds from raw parts (used by codecs; pairs must be a permutation
    /// of a valid ranking's `(item, rank)` pairs). The item-sorted shadow is
    /// rebuilt here, so decoded rankings verify on the fast path too.
    pub fn from_pairs(id: RankingId, pairs: Vec<(ItemId, u16)>) -> Self {
        Self::build(id, with_shadow(pairs))
    }

    /// The ranking id.
    #[inline]
    pub fn id(&self) -> RankingId {
        self.id
    }

    /// The ranking length `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.pairs.len() / 2
    }

    /// All `(item, original_rank)` pairs in canonical order.
    #[inline]
    pub fn pairs(&self) -> &[(ItemId, u16)] {
        self.pairs.split_at(self.k()).0
    }

    /// The first `p` pairs — the prefix to be indexed.
    #[inline]
    pub fn prefix(&self, p: usize) -> &[(ItemId, u16)] {
        self.pairs.split_at(p.min(self.k())).0
    }

    /// The item-sorted shadow view: the same `(item, original_rank)` pairs
    /// sorted by ascending item id — the input shape of the merge
    /// verification kernel ([`crate::distance::footrule_sorted_within`]).
    #[inline]
    pub fn pairs_by_item(&self) -> &[(ItemId, u16)] {
        self.pairs.split_at(self.k()).1
    }

    /// The original rank of `item`, or `None` if not contained (binary
    /// search on the item-sorted shadow).
    pub fn rank_of(&self, item: ItemId) -> Option<usize> {
        let by_item = self.pairs_by_item();
        by_item
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .and_then(|pos| by_item.get(pos))
            .map(|&(_, rank)| usize::from(rank))
    }

    /// Raw Footrule distance to `other` (uses the preserved original ranks).
    pub fn footrule_raw(&self, other: &OrderedRanking) -> u64 {
        footrule_sorted_within(self.pairs_by_item(), other.pairs_by_item(), u64::MAX)
            .expect("u64::MAX threshold never prunes")
    }

    /// Early-exit verification: `Some(distance)` iff within `threshold_raw`.
    /// Runs on the item-sorted shadow views as an O(k) two-pointer merge —
    /// the per-candidate fast path of every join kernel.
    #[inline]
    pub fn footrule_within(&self, other: &OrderedRanking, threshold_raw: u64) -> Option<u64> {
        footrule_sorted_within(self.pairs_by_item(), other.pairs_by_item(), threshold_raw)
    }

    /// An upper bound on the number of items shared with `other`, from the
    /// two overlap signatures alone: `popcount(sig_a & sig_b) + min(lost_a,
    /// lost_b)`.
    ///
    /// Sound because the distinct bits of any subset `X` of a ranking's
    /// items number at least `|X| − lost`, and every bit of the shared set
    /// `S` is set in both signatures: `popcount(sig_a & sig_b) ≥ |S| −
    /// min(lost_a, lost_b)`. The bound can exceed `k` (by at most `lost`).
    #[inline]
    pub fn overlap_upper_bound(&self, other: &OrderedRanking) -> usize {
        let common = (self.signature[0] & other.signature[0]).count_ones()
            + (self.signature[1] & other.signature[1]).count_ones();
        common as usize + usize::from(self.lost.min(other.lost))
    }

    /// Whether this ranking may hold one of the items in `items`, from its
    /// overlap signature alone: `false` means it holds none of them; `true`
    /// means only that one of its items shares a signature bit with one of
    /// them.
    #[inline]
    pub fn may_hold_any(&self, items: &ItemBits) -> bool {
        (self.signature[0] & items.0[0]) | (self.signature[1] & items.0[1]) != 0
    }

    /// A lower bound on the rank weight of the items of `self` that `other`
    /// lacks, an item at rank `r` weighing `k − r`:
    /// `(Σ_j popcount(plane_j & !common) << j) << s`, where
    /// `common = (sig_self[0] & sig_other[0]) | (sig_self[1] & sig_other[1])`
    /// folds the bits the two signatures share, word by word.
    ///
    /// Sound because a shared item sets its bit in the same word of both
    /// signatures, so its folded bit is in `common`: every item of `self` on
    /// a folded bit outside `common` is certainly absent from `other`. The
    /// items of `self` on one folded bit add the OR of their scaled weights,
    /// which is at most their sum, and the shift rounds every weight down.
    /// Exact when `k ≤ 15` (so `s = 0`), no two items of `self` share a
    /// folded bit and no item of `other` outside `self` shares a signature
    /// bit with one inside. `common` is symmetric, so it serves both sides.
    #[inline]
    pub fn absent_weight_lower_bound(&self, other: &OrderedRanking) -> u64 {
        let common =
            (self.signature[0] & other.signature[0]) | (self.signature[1] & other.signature[1]);
        let scaled: u64 = self
            .planes
            .iter()
            .zip(0u32..)
            .map(|(&plane, j)| u64::from((plane & !common).count_ones()) << j)
            .sum();
        scaled << weight_shift(self.k())
    }

    /// Converts back into a plain [`Ranking`] (restoring the original item
    /// order).
    pub fn to_ranking(&self) -> Ranking {
        let mut items: Vec<(u16, ItemId)> = self
            .pairs()
            .iter()
            .map(|&(item, rank)| (rank, item))
            .collect();
        items.sort_unstable();
        Ranking::new_unchecked(self.id, items.into_iter().map(|(_, item)| item).collect())
    }

    /// Approximate deep size in bytes (for shuffle accounting): the struct,
    /// whose signature and planes are inline, and its one slice of `2k`
    /// pairs — the canonical pairs and the item-sorted shadow.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.pairs.len() * std::mem::size_of::<(ItemId, u16)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    fn sample_dataset() -> Vec<Ranking> {
        // Figure 3's spirit: item 5 occurs everywhere (most frequent), item 9
        // once (rarest).
        vec![
            r(1, &[2, 5, 4, 3, 1]),
            r(2, &[5, 2, 4, 3, 1]),
            r(3, &[0, 8, 5, 3, 7]),
            r(4, &[8, 0, 5, 3, 7]),
            r(5, &[2, 5, 3, 4, 1]),
            r(6, &[6, 9, 8, 0, 5]),
        ]
    }

    #[test]
    fn frequency_table_counts() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        assert_eq!(freq.count(5), 6);
        assert_eq!(freq.count(9), 1);
        assert_eq!(freq.count(42), 0);
        assert_eq!(freq.total_occurrences(), 30);
        assert_eq!(freq.distinct_items(), 10);
    }

    #[test]
    fn merged_parts_count_like_the_whole() {
        let ds = sample_dataset();
        let whole = FrequencyTable::from_rankings(&ds);
        let (head, tail) = ds.split_at(2);
        let merged = FrequencyTable::merge(&[
            FrequencyTable::from_rankings(head),
            FrequencyTable::default(),
            FrequencyTable::from_rankings(tail),
        ]);
        for item in 0..=10 {
            assert_eq!(merged.count(item), whole.count(item), "item {item}");
        }
        assert_eq!(merged.dense.len(), whole.dense.len());
        assert_eq!(merged.total_occurrences(), 30);
        assert_eq!(merged.distinct_items(), 10);
        assert!(FrequencyTable::merge([]).dense.is_empty());
    }

    #[test]
    fn merging_random_splits_counts_like_the_whole() {
        // Ids below the dense bound, across it and next to u32::MAX, cut
        // into random parts (empty ones included), merged at once and as a
        // merge of merges: the dense part (bound and counts), the keyed
        // counts and the totals of counting the whole. Miri gets 3 cases.
        let spread = |x: u32| match x % 3 {
            0 => x / 3,
            1 => 1000 + 97 * (x / 3),
            _ => u32::MAX - x / 3,
        };
        let cases = if cfg!(miri) { 3 } else { 300 };
        let mut rng = topk_datagen::Rng::seed_from_u64(0x0D_E25E);
        for case in 0..cases {
            let n = rng.gen_range(0usize..16);
            let data: Vec<Ranking> = (0..n as u64)
                .map(|id| {
                    let k = rng.gen_range(1usize..=12);
                    let items = rng.distinct(48, k).into_iter().map(spread).collect();
                    Ranking::new_unchecked(id, items)
                })
                .collect();
            let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..5))
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
            let (head, tail) = parts.split_at(rng.gen_range(0..=parts.len()));
            let whole = FrequencyTable::from_rankings(&data);
            for merged in [
                FrequencyTable::merge(&parts),
                FrequencyTable::merge([&FrequencyTable::merge(head), &FrequencyTable::merge(tail)]),
            ] {
                assert_eq!(merged.dense, whole.dense, "case {case}");
                assert_eq!(merged.keyed, whole.keyed, "case {case}");
                assert_eq!(merged.distinct_items(), whole.distinct_items());
                assert_eq!(merged.total_occurrences(), whole.total_occurrences());
            }
            // What sizes a merge, kept or read off the shape, is what
            // scanning the counts finds.
            for table in parts.iter().chain([&whole]) {
                let counted: u64 = table.counted().map(|(_, count)| count).sum();
                assert_eq!(table.total_occurrences(), counted, "case {case}");
                let largest = table.counted().map(|(item, _)| item).max();
                assert_eq!(table.max_item(), largest, "case {case}");
            }
        }
    }

    #[test]
    fn ids_near_u32_max_keep_the_dense_part_small() {
        // Two rankings, eight occurrences: the bound is 4 · 8 + 1024, not
        // u32::MAX, and the high ids are counted in the keyed map.
        let ds = [
            r(1, &[u32::MAX, 3, u32::MAX - 1, 70_000]),
            r(2, &[u32::MAX - 1, 3, 5, u32::MAX - 7]),
        ];
        let freq = FrequencyTable::from_rankings(&ds);
        assert_eq!(freq.dense.len(), 4 * 8 + 1024);
        assert_eq!(freq.keyed.len(), 4);
        assert_eq!(freq.count(u32::MAX - 1), 2);
        assert_eq!(freq.count(u32::MAX), 1);
        assert_eq!(freq.count(3), 2);
        assert_eq!(freq.count(u32::MAX - 2), 0);
        // An uncounted item keys below every counted one, by id.
        assert!(freq.order_key(u32::MAX - 2) < freq.order_key(5));
        assert!(freq.order_key(5) < freq.order_key(u32::MAX));
        assert!(freq.order_key(u32::MAX) < freq.order_key(3));
        assert!(freq.order_key(3) < freq.order_key(u32::MAX - 1));
    }

    #[test]
    fn counts_past_u32_keep_their_order() {
        // A count of 2^32 or more still outranks a smaller one: the key is
        // wider than `count << 32` in 64 bits.
        let mut freq = FrequencyTable::from_rankings(&[r(1, &[1, 2])]);
        for _ in 0..32 {
            freq = FrequencyTable::merge([&freq, &freq]);
        }
        freq = FrequencyTable::merge([&freq, &FrequencyTable::from_rankings(&[r(2, &[1])])]);
        assert_eq!(freq.count(1), (1 << 32) + 1);
        assert_eq!(freq.count(2), 1 << 32);
        assert!(freq.order_key(2) < freq.order_key(1));
    }

    #[test]
    fn ordering_puts_rare_items_first() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        let ordered = OrderedRanking::by_frequency(&ds[5], &freq);
        // τ6 = [6,9,8,0,5]; counts: 6→1, 9→1, 8→3, 0→3, 5→6.
        // Ascending (count, id): (1,6), (1,9), (3,0), (3,8), (6,5).
        let items: Vec<u32> = ordered.pairs().iter().map(|&(i, _)| i).collect();
        assert_eq!(items, vec![6, 9, 0, 8, 5]);
        // Original ranks are preserved.
        assert_eq!(ordered.rank_of(6), Some(0));
        assert_eq!(ordered.rank_of(5), Some(4));
        assert_eq!(ordered.rank_of(0), Some(3));
    }

    #[test]
    fn by_rank_is_identity_order() {
        let ranking = r(9, &[7, 3, 1]);
        let ordered = OrderedRanking::by_rank(&ranking);
        assert_eq!(ordered.pairs(), &[(7, 0), (3, 1), (1, 2)]);
        assert_eq!(ordered.prefix(2), &[(7, 0), (3, 1)]);
    }

    #[test]
    fn ordered_distance_equals_plain_distance() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        let ordered: Vec<OrderedRanking> = ds
            .iter()
            .map(|r| OrderedRanking::by_frequency(r, &freq))
            .collect();
        for i in 0..ds.len() {
            for j in 0..ds.len() {
                assert_eq!(
                    ordered[i].footrule_raw(&ordered[j]),
                    crate::distance::footrule_raw(&ds[i], &ds[j]),
                    "pair ({}, {})",
                    ds[i].id(),
                    ds[j].id()
                );
            }
        }
    }

    #[test]
    fn prefix_is_clamped() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        let ordered = OrderedRanking::by_frequency(&ds[0], &freq);
        assert_eq!(ordered.prefix(99).len(), 5);
        assert_eq!(ordered.prefix(0).len(), 0);
    }

    #[test]
    fn round_trip_to_ranking() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        for original in &ds {
            let ordered = OrderedRanking::by_frequency(original, &freq);
            assert_eq!(&ordered.to_ranking(), original);
        }
    }

    #[test]
    fn shadow_view_is_an_item_sorted_permutation() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        for r in &ds {
            for ordered in [
                OrderedRanking::by_frequency(r, &freq),
                OrderedRanking::by_rank(r),
            ] {
                let shadow = ordered.pairs_by_item();
                assert!(shadow.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
                let mut canonical: Vec<(u32, u16)> = ordered.pairs().to_vec();
                canonical.sort_unstable();
                assert_eq!(shadow, canonical.as_slice(), "not a permutation");
            }
        }
    }

    #[test]
    fn from_pairs_rebuilds_the_shadow() {
        let ordered = OrderedRanking::from_pairs(7, vec![(9, 0), (2, 1), (5, 2)]);
        assert_eq!(ordered.pairs(), &[(9, 0), (2, 1), (5, 2)]);
        assert_eq!(ordered.pairs_by_item(), &[(2, 1), (5, 2), (9, 0)]);
        assert_eq!(ordered.rank_of(9), Some(0));
        assert_eq!(ordered.rank_of(5), Some(2));
        assert_eq!(ordered.rank_of(4), None);
    }

    /// The true overlap of two rankings, counted naively.
    fn overlap(a: &OrderedRanking, b: &OrderedRanking) -> usize {
        a.pairs()
            .iter()
            .filter(|&&(item, _)| b.rank_of(item).is_some())
            .count()
    }

    #[test]
    fn signature_bound_never_undercounts_the_overlap() {
        // Dense item ids (many rankings over few items) and k = 200 > 128
        // bits, where most items are lost to collisions.
        let mut ds: Vec<OrderedRanking> = sample_dataset()
            .iter()
            .map(OrderedRanking::by_rank)
            .collect();
        for start in [0u32, 50, 150, 1_000] {
            let items: Vec<u32> = (start..start + 200).collect();
            ds.push(OrderedRanking::by_rank(&r(u64::from(start) + 100, &items)));
        }
        for a in &ds {
            assert_eq!(
                usize::from(a.lost),
                a.k() - (a.signature[0].count_ones() + a.signature[1].count_ones()) as usize
            );
            assert!(a.overlap_upper_bound(a) >= a.k());
            for b in &ds {
                assert!(a.overlap_upper_bound(b) >= overlap(a, b));
                assert_eq!(a.overlap_upper_bound(b), b.overlap_upper_bound(a));
            }
        }
    }

    #[test]
    fn items_on_one_signature_bit_are_counted_as_lost() {
        // Five items that all hash to item 0's bit: one bit set, four lost.
        let colliding = items_by_signature_bit(5, false);
        let a = OrderedRanking::by_rank(&r(1, &colliding));
        assert_eq!((a.signature[0] | a.signature[1]).count_ones(), 1);
        assert_eq!(a.lost, 4);
        // Against itself the one common bit alone would claim overlap 1;
        // the `lost` correction restores the true 5.
        assert_eq!(a.overlap_upper_bound(&a), 5);
        // A collision-free partner sharing nothing (item 0, on `a`'s bit, is
        // skipped): min(lost) = 0, no bit in common — the bound is exact.
        let free = &items_by_signature_bit(6, true)[1..];
        let b = OrderedRanking::by_rank(&r(2, free));
        assert_eq!(b.lost, 0);
        assert_eq!(a.overlap_upper_bound(&b), 0);
    }

    /// The rank weight of `a`'s items that `b` lacks, each weight first
    /// rounded down to a multiple of `2^s` as the planes store it:
    /// `Σ_{a∖S} ((k − r) >> s) << s`. With `round = false`, `s = 0`.
    fn absent_weight(a: &OrderedRanking, b: &OrderedRanking, round: bool) -> u64 {
        let shift = if round { weight_shift(a.k()) } else { 0 };
        a.pairs()
            .iter()
            .filter(|&&(item, _)| b.rank_of(item).is_none())
            .map(|&(_, rank)| ((a.k() - usize::from(rank)) as u64 >> shift) << shift)
            .sum()
    }

    #[test]
    fn weight_shift_fits_every_weight_in_four_bits() {
        for (k, shift) in [
            (1, 0),
            (15, 0),
            (16, 1),
            (25, 1),
            (31, 1),
            (32, 2),
            (200, 4),
        ] {
            assert_eq!(weight_shift(k), shift, "k = {k}");
        }
        for k in 1..=usize::from(u16::MAX) {
            assert!(k >> weight_shift(k) < 16, "k = {k}");
        }
    }

    #[test]
    fn items_on_one_signature_bit_prove_nothing_absent() {
        // Every item of both rankings on one bit: each of `a`'s bits is set
        // in `b` whatever they share, so no weight is proven absent.
        let k = 6;
        let pool = items_by_signature_bit(2 * k, false);
        let a = OrderedRanking::by_rank(&r(1, &pool[..k]));
        for o in 0..=k {
            let b = sharing(&pool, k, o);
            assert_eq!(a.absent_weight_lower_bound(&b), 0, "o = {o}");
            assert_eq!(b.absent_weight_lower_bound(&a), 0, "o = {o}");
        }
    }

    #[test]
    fn a_folded_bit_hides_an_absent_item_only_behind_a_shared_one() {
        // Item 0 and its partner differ in the signature only by the word.
        // The common bits are taken word by word, so a partner in the other
        // ranking hides nothing...
        let partner = fold_partner(0);
        assert_ne!(signature_bit(0), signature_bit(partner));
        assert_eq!(signature_bit(0).1, signature_bit(partner).1);
        let a = OrderedRanking::by_rank(&r(1, &[0]));
        let b = OrderedRanking::by_rank(&r(2, &[partner]));
        assert_eq!(a.absent_weight_lower_bound(&b), 1);
        assert_eq!(b.absent_weight_lower_bound(&a), 1);
        // ...but one ranking holding both puts them on one plane bit, and
        // the shared partner hides item 0's absence.
        let both = OrderedRanking::by_rank(&r(3, &[0, partner]));
        assert_eq!(both.absent_weight_lower_bound(&b), 0);
        assert_eq!(absent_weight(&both, &b, false), 2);
        assert_eq!(b.absent_weight_lower_bound(&both), 0);
    }

    #[test]
    fn fold_partners_in_the_other_ranking_leave_the_bound_exact() {
        // `b` is `a` with the items at some ranks swapped for their fold
        // partners: every folded bit of `a` stays set in `b`, yet the bound
        // counts exactly the swapped items, from either side. Miri gets
        // k ≤ 3.
        let max_k = if cfg!(miri) { 3 } else { 6 };
        for k in 1..=max_k {
            let items = items_by_signature_bit(k, true);
            let a = OrderedRanking::by_rank(&r(1, &items));
            for swapped in 0..1u32 << k {
                let moved: Vec<ItemId> = items
                    .iter()
                    .zip(0..)
                    .map(|(&item, rank)| {
                        if swapped >> rank & 1 == 1 {
                            fold_partner(item)
                        } else {
                            item
                        }
                    })
                    .collect();
                let b = OrderedRanking::by_rank(&r(2, &moved));
                let weight: u64 = (0..k)
                    .filter(|&rank| swapped >> rank & 1 == 1)
                    .map(|rank| (k - rank) as u64)
                    .sum();
                assert_eq!(a.absent_weight_lower_bound(&b), weight, "{a:?} vs {b:?}");
                assert_eq!(absent_weight(&a, &b, false), weight);
                assert_eq!(b.absent_weight_lower_bound(&a), weight, "{b:?} vs {a:?}");
            }
        }
    }

    /// Rankings over windows of `pool`, each read forwards and backwards.
    fn windows(pool: &[ItemId], k: usize, stride: usize) -> Vec<OrderedRanking> {
        (0..=pool.len() - k)
            .step_by(stride)
            .flat_map(|start| {
                let window = &pool[start..start + k];
                let reversed: Vec<u32> = window.iter().rev().copied().collect();
                [
                    OrderedRanking::by_rank(&r(1, window)),
                    OrderedRanking::by_rank(&r(2, &reversed)),
                ]
            })
            .collect()
    }

    #[test]
    fn distinct_folded_bits_give_the_exact_absent_weight() {
        // Pairwise-distinct folded bits and k ≤ 15 (so s = 0): an item's
        // folded bit is outside the common bits iff the item is not in
        // `b`, and no two of `a`'s items share a plane bit, so the bound is
        // D_a = Σ_{a∖S} (k − r_a) exactly.
        let (ks, stride): (&[usize], usize) = if cfg!(miri) {
            (&[1, 8, 15], 7)
        } else {
            (&[1, 2, 3, 5, 8, 13, 14, 15], 1)
        };
        for &k in ks {
            assert_eq!(weight_shift(k), 0);
            let rankings = windows(&items_by_signature_bit(3 * k, true), k, stride);
            for a in &rankings {
                for b in &rankings {
                    assert_eq!(
                        a.absent_weight_lower_bound(b),
                        absent_weight(a, b, false),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn absent_weight_bound_is_a_lower_bound_past_four_bits() {
        // k ≥ 16 shifts the weights (s ≥ 1), and k = 200 puts at least 136
        // items on a folded bit another item of the ranking already holds.
        let (ks, stride): (&[usize], usize) = if cfg!(miri) {
            (&[16, 25], 16)
        } else {
            (&[16, 25, 200], 1)
        };
        for &k in ks {
            assert!(weight_shift(k) > 0);
            // Distinct folded bits: the bound is the rounded weight exactly.
            if 2 * k <= 64 {
                let rankings = windows(&items_by_signature_bit(64, true), k, stride);
                for a in &rankings {
                    for b in &rankings {
                        assert_eq!(
                            a.absent_weight_lower_bound(b),
                            absent_weight(a, b, true),
                            "{a:?} vs {b:?}"
                        );
                    }
                }
            }
            // Dense ids on shared folded bits: a lower bound on D_a, and
            // 2·D_a ≤ F.
            let dense: Vec<u32> = (0..3 * k as u32).collect();
            let rankings = windows(&dense, k, stride.max(k / 8));
            for a in &rankings {
                for b in &rankings {
                    let bound = a.absent_weight_lower_bound(b);
                    assert!(bound <= absent_weight(a, b, true), "{a:?} vs {b:?}");
                    assert!(2 * bound <= a.footrule_raw(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn may_hold_any_is_exact_on_distinct_bits() {
        // Items on pairwise-distinct bits: a ranking "may hold" a set of
        // them exactly when it holds one. Miri gets a smaller pool.
        let n = if cfg!(miri) { 8 } else { 24 };
        let pool = items_by_signature_bit(n, true);
        let rankings = windows(&pool, 4, 3);
        for start in 0..n {
            for len in 0..=3.min(n - start) {
                let probe = &pool[start..start + len];
                let bits: ItemBits = probe.iter().copied().collect();
                for a in &rankings {
                    let holds = probe.iter().any(|&item| a.rank_of(item).is_some());
                    assert_eq!(a.may_hold_any(&bits), holds, "{probe:?} vs {a:?}");
                }
            }
        }
    }

    #[test]
    fn may_hold_any_cannot_tell_items_on_one_bit_apart() {
        // An item on item 0's bit makes item 0 possible; a fold partner,
        // on the same bit of the other word, does not.
        let mate = items_by_signature_bit(2, false)[1];
        let zero = ItemBits::from_iter([0]);
        let a = OrderedRanking::by_rank(&r(1, &[mate, 7_000]));
        assert_eq!(a.rank_of(0), None);
        assert!(a.may_hold_any(&zero));
        let b = OrderedRanking::by_rank(&r(2, &[fold_partner(0)]));
        assert!(!b.may_hold_any(&zero));
        assert!(!a.may_hold_any(&ItemBits::default()), "the empty set");
    }

    #[test]
    fn from_pairs_rebuilds_the_signature() {
        let ranking = r(3, &[9, 2, 5, 70_000, 11]);
        let built = OrderedRanking::by_rank(&ranking);
        let decoded = OrderedRanking::from_pairs(3, built.pairs().to_vec());
        assert_eq!(decoded, built);
        assert_eq!(decoded.signature, built.signature);
        assert_eq!(decoded.planes, built.planes);
    }

    #[test]
    fn empty_frequency_table_relative_frequencies() {
        let freq = FrequencyTable::default();
        assert!(freq.relative_frequencies().is_empty());
    }

    #[test]
    fn relative_frequencies_sum_to_one() {
        let ds = sample_dataset();
        let freq = FrequencyTable::from_rankings(&ds);
        let rel = freq.relative_frequencies();
        let sum: f64 = rel.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Descending order.
        assert!(rel.windows(2).all(|w| w[0] >= w[1]));
    }
}
