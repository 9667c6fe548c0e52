//! The core [`Ranking`] type: a fixed-length top-k list of distinct items.

use std::fmt;

/// Identifier of a ranked item. Items are represented by their ids throughout
/// the paper (§1.1) and this crate.
pub type ItemId = u32;

/// Identifier of a ranking within a dataset.
pub type RankingId = u64;

/// Widens a rank (a `usize` position, `< k` by construction) into the `u64`
/// domain of raw Footrule sums.
///
/// Exists so the hot distance kernels can widen without a raw `as` cast at
/// every use site: `usize → u64` is value-preserving on every target the
/// workspace supports (clippy's cast lints agree — it needs no `#[expect]`).
#[inline]
#[must_use]
pub fn rank_u64(rank: usize) -> u64 {
    rank as u64
}

/// Which input relation a record belongs to in a two-relation (R-S) join.
///
/// Self-joins tag every record [`Relation::Left`]. In an R-S join the two id
/// spaces may overlap, so a record is identified by the pair
/// `(relation, id)`; the derived `Ord` puts `Left` before `Right`, which is
/// the canonical orientation of an emitted R-S pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relation {
    /// The left (R) relation — in arrival mode, the standing corpus.
    Left,
    /// The right (S) relation — in arrival mode, the new batch.
    Right,
}

impl Relation {
    /// Stable single-byte encoding for spill codecs.
    #[inline]
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            Relation::Left => 0,
            Relation::Right => 1,
        }
    }

    /// Inverse of [`Relation::as_u8`]; any non-zero byte decodes as `Right`.
    #[inline]
    #[must_use]
    pub fn from_u8(byte: u8) -> Self {
        if byte == 0 {
            Relation::Left
        } else {
            Relation::Right
        }
    }
}

/// Errors raised when constructing a [`Ranking`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// The item list was empty; a top-k ranking needs `k ≥ 1`.
    Empty,
    /// An item occurred more than once. The offending item is attached.
    DuplicateItem(ItemId),
    /// The ranking length would overflow the rank representation.
    TooLong(usize),
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::Empty => write!(f, "a top-k ranking must contain at least one item"),
            RankingError::DuplicateItem(item) => {
                write!(f, "item {item} appears more than once in the ranking")
            }
            RankingError::TooLong(len) => {
                write!(f, "ranking length {len} exceeds the supported maximum")
            }
        }
    }
}

impl std::error::Error for RankingError {}

/// Maximum supported ranking length.
///
/// Real-world top-k rankings are short — the paper's own study (\[3\] in the
/// paper) found most rankings have `k = 10` or `k = 20`, and the evaluation
/// uses `k ∈ {10, 25}`. Capping `k` lets every distance fit comfortably in a
/// `u64` (max raw distance is `k·(k+1)`) and lets ranks be stored as `u16`.
pub const MAX_K: usize = u16::MAX as usize;

/// A top-k ranking: an ordered list of `k` **distinct** items.
///
/// `items[r]` is the item at rank `r`, with rank `0` being the top position
/// (the paper uses ranks `0..k−1` and the artificial rank `l = k` for items
/// not contained in the ranking, see §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ranking {
    id: RankingId,
    items: Box<[ItemId]>,
}

impl Ranking {
    /// Builds a ranking after validating that the items are non-empty and
    /// pairwise distinct.
    pub fn new(id: RankingId, items: Vec<ItemId>) -> Result<Self, RankingError> {
        if items.is_empty() {
            return Err(RankingError::Empty);
        }
        if items.len() > MAX_K {
            return Err(RankingError::TooLong(items.len()));
        }
        // k is tiny (usually 10–25): a quadratic scan beats hashing here and
        // reports the first duplicate deterministically.
        for (pos, item) in items.iter().enumerate() {
            if items[..pos].contains(item) {
                return Err(RankingError::DuplicateItem(*item));
            }
        }
        Ok(Self {
            id,
            items: items.into_boxed_slice(),
        })
    }

    /// Builds a ranking without the duplicate check.
    ///
    /// Intended for data that is known valid (e.g. produced by
    /// [`crate::ordered`] or a validated loader). Invalid input does not cause
    /// memory unsafety, only wrong distances, hence this is a safe function —
    /// but debug builds still assert the invariant.
    pub fn new_unchecked(id: RankingId, items: Vec<ItemId>) -> Self {
        debug_assert!(
            Self::new(id, items.clone()).is_ok(),
            "Ranking::new_unchecked called with invalid items"
        );
        Self {
            id,
            items: items.into_boxed_slice(),
        }
    }

    /// The ranking's identifier.
    #[inline]
    pub fn id(&self) -> RankingId {
        self.id
    }

    /// The ranking length `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.items.len()
    }

    /// The ranked items, top rank first.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The rank of `item`, or `None` if the item is not contained.
    ///
    /// Linear scan: `k` is small enough that this beats a hash lookup.
    #[inline]
    pub fn rank_of(&self, item: ItemId) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }

    /// Whether the ranking contains `item`.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.contains(&item)
    }

    /// Iterator over `(item, rank)` pairs.
    pub fn iter_with_ranks(&self) -> impl Iterator<Item = (ItemId, usize)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(rank, &item)| (item, rank))
    }

    /// The number of items shared with `other`.
    pub fn overlap(&self, other: &Ranking) -> usize {
        self.items
            .iter()
            .filter(|item| other.contains(**item))
            .count()
    }

    /// Approximate deep size in bytes (used for shuffle-volume accounting).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.items.len() * std::mem::size_of::<ItemId>()
    }
}

impl fmt::Display for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}[", self.id)?;
        for (pos, item) in self.items.iter().enumerate() {
            if pos > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_distinct_items() {
        let r = Ranking::new(7, vec![2, 5, 4, 3, 1]).unwrap();
        assert_eq!(r.id(), 7);
        assert_eq!(r.k(), 5);
        assert_eq!(r.items(), &[2, 5, 4, 3, 1]);
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Ranking::new(0, vec![]), Err(RankingError::Empty));
    }

    #[test]
    fn new_rejects_duplicates_and_reports_first() {
        assert_eq!(
            Ranking::new(0, vec![1, 2, 3, 2, 1]),
            Err(RankingError::DuplicateItem(2))
        );
    }

    #[test]
    fn rank_lookup_follows_paper_convention() {
        let r = Ranking::new(1, vec![10, 20, 30]).unwrap();
        assert_eq!(r.rank_of(10), Some(0));
        assert_eq!(r.rank_of(30), Some(2));
        assert_eq!(r.rank_of(99), None);
    }

    #[test]
    fn overlap_counts_shared_items() {
        let a = Ranking::new(1, vec![1, 2, 3, 4, 5]).unwrap();
        let b = Ranking::new(2, vec![4, 5, 6, 7, 8]).unwrap();
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(b.overlap(&a), 2);
        assert_eq!(a.overlap(&a), 5);
    }

    #[test]
    fn display_is_compact() {
        let r = Ranking::new(3, vec![9, 1]).unwrap();
        assert_eq!(r.to_string(), "τ3[9,1]");
    }

    #[test]
    fn iter_with_ranks_yields_positions() {
        let r = Ranking::new(1, vec![5, 6]).unwrap();
        let pairs: Vec<_> = r.iter_with_ranks().collect();
        assert_eq!(pairs, vec![(5, 0), (6, 1)]);
    }
}
