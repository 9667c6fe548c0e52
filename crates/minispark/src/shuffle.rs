//! Partitioners — the policy side of a shuffle.
//!
//! A [`Partitioner`] maps keys to target partitions. [`HashPartitioner`] is
//! the default (Spark's `HashPartitioner`); [`CompositePartitioner`] spreads
//! composite `(primary, secondary)` keys so that records sharing a primary
//! key land on *different* partitions — the mechanism §6 of the paper uses to
//! break up oversized posting lists ("we partition by both the item id and
//! the randomly assigned number and increase the number of partitions").

#![warn(clippy::indexing_slicing)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Maps keys to one of `num_partitions()` target partitions.
pub trait Partitioner<K: ?Sized>: Send + Sync {
    /// The target partition of `key`, in `0..num_partitions()`.
    fn partition(&self, key: &K) -> usize;
    /// The number of target partitions.
    fn num_partitions(&self) -> usize;
}

/// Deterministic hash of a value with the std `DefaultHasher` (SipHash with
/// fixed keys when constructed directly, so results are stable within and
/// across runs of the same binary).
pub(crate) fn stable_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Reduces a 64-bit hash to a target in `0..n` with Lemire's multiply-shift
/// (`(hash × n) >> 64`), which weighs **all 64 hash bits** equally.
///
/// The previous `hash % n` reduction only consumed the low `log2(n)` bits
/// (exactly, whenever `n` is a power of two — the common small partition
/// counts 2/4/8/16). Any low-bit structure in the hash then maps straight
/// into partition imbalance; multiply-shift folds the high bits in and also
/// replaces the division with a multiply.
#[expect(
    clippy::cast_possible_truncation,
    reason = "(hash · n) >> 64 < n ≤ usize::MAX — the reduction is its own bound"
)]
pub(crate) fn spread(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
}

/// Spark-style hash partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    /// Creates a partitioner with `partitions ≥ 1` targets.
    pub fn new(partitions: usize) -> Self {
        Self {
            partitions: partitions.max(1),
        }
    }
}

impl<K: Hash + ?Sized> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K) -> usize {
        spread(stable_hash(key), self.partitions)
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }
}

/// Partitions composite `(primary, secondary)` keys by hashing **both**
/// components, so that the sub-partitions of one oversized primary key are
/// distributed across the cluster instead of hammering a single reducer.
///
/// Functionally this equals `HashPartitioner` over the tuple, but it exists
/// as a named type because the repartitioning join (Algorithm 3) is defined
/// in terms of it, and because it lets tests assert the spreading property
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositePartitioner {
    partitions: usize,
}

impl CompositePartitioner {
    /// Creates a composite partitioner with `partitions ≥ 1` targets.
    pub fn new(partitions: usize) -> Self {
        Self {
            partitions: partitions.max(1),
        }
    }
}

impl<K1: Hash, K2: Hash> Partitioner<(K1, K2)> for CompositePartitioner {
    fn partition(&self, key: &(K1, K2)) -> usize {
        let mut hasher = DefaultHasher::new();
        key.0.hash(&mut hasher);
        key.1.hash(&mut hasher);
        spread(hasher.finish(), self.partitions)
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }
}

impl<K1: Hash, K2: Hash, K3: Hash> Partitioner<(K1, K2, K3)> for CompositePartitioner {
    fn partition(&self, key: &(K1, K2, K3)) -> usize {
        let mut hasher = DefaultHasher::new();
        key.0.hash(&mut hasher);
        key.1.hash(&mut hasher);
        key.2.hash(&mut hasher);
        spread(hasher.finish(), self.partitions)
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner::new(7);
        for key in 0u64..1000 {
            let target = p.partition(&key);
            assert!(target < 7);
            assert_eq!(target, p.partition(&key));
        }
    }

    #[test]
    fn hash_partitioner_clamps_zero_partitions() {
        let p = HashPartitioner::new(0);
        assert_eq!(Partitioner::<u64>::num_partitions(&p), 1);
        assert_eq!(p.partition(&123u64), 0);
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner::new(16);
        let used: HashSet<usize> = (0u64..10_000).map(|k| p.partition(&k)).collect();
        assert_eq!(used.len(), 16, "10k keys should hit all 16 partitions");
    }

    #[test]
    fn composite_partitioner_spreads_same_primary_key() {
        // The whole point: one hot primary key must land on many partitions
        // when paired with different secondary keys.
        let p = CompositePartitioner::new(16);
        let hot_item = 42u32;
        let used: HashSet<usize> = (0u32..200)
            .map(|sub| p.partition(&(hot_item, sub)))
            .collect();
        assert!(
            used.len() >= 12,
            "hot key only reached {} partitions",
            used.len()
        );
    }

    #[test]
    fn composite_partitioner_is_deterministic() {
        let p = CompositePartitioner::new(8);
        assert_eq!(p.partition(&(1u32, 2u32)), p.partition(&(1u32, 2u32)));
    }

    #[test]
    fn spread_stays_in_range_and_uses_high_bits() {
        for n in [1usize, 2, 3, 7, 8, 16, 1000] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..1000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                assert!(spread(state, n) < n);
            }
        }
        // Multiply-shift is driven by the *high* bits: two hashes differing
        // only in low bits map to the same target, while flipping a high bit
        // moves the target — the opposite of `% n`, which ignores high bits.
        assert_eq!(spread(1 << 20, 16), spread(2 << 20, 16));
        assert_ne!(spread(0, 16), spread(u64::MAX, 16));
    }

    /// xorshift64* — a tiny deterministic RNG for the distribution tests
    /// (minispark tests must not depend on the datagen crate — layering).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Inverse-CDF Zipf sampler over `1..=vocab` with exponent `s`.
    struct Zipf {
        cdf: Vec<f64>,
    }

    impl Zipf {
        fn new(vocab: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(vocab);
            let mut acc = 0.0;
            for rank in 1..=vocab {
                acc += 1.0 / (rank as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            Self { cdf }
        }

        fn sample(&self, rng: &mut XorShift) -> u64 {
            let u = rng.next_f64();
            (self.cdf.partition_point(|&c| c < u) + 1) as u64
        }
    }

    #[test]
    fn hash_partitioner_chi_squared_over_distinct_keys() {
        // Regression for the `hash % n` reduction: with a power-of-two
        // partition count only the low hash bits decided the target. The
        // multiply-shift reduction must keep sequential keys statistically
        // uniform across partitions.
        let n = 16usize;
        let p = HashPartitioner::new(n);
        let draws = 20_000u64;
        let mut counts = vec![0f64; n];
        for key in 0..draws {
            counts[p.partition(&key)] += 1.0;
        }
        let expected = draws as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|c| (c - expected) * (c - expected) / expected)
            .sum();
        // χ²₀.₉₉₉ at 15 degrees of freedom ≈ 37.7 — a deterministic test,
        // so this either always passes or flags a real distribution defect.
        assert!(chi2 < 37.7, "χ² = {chi2:.1} over {n} partitions");
    }

    #[test]
    fn hash_partitioner_covers_all_partitions_under_zipf_keys() {
        // Zipf-weighted key stream (the shape the joins actually shuffle):
        // for n ≫ partitions every partition must receive records, and the
        // partition weights must follow the key weights, not hash artifacts.
        for parts in [4usize, 7, 16] {
            let p = HashPartitioner::new(parts);
            let zipf = Zipf::new(1000, 1.1);
            let mut rng = XorShift(0x5EED_CAFE);
            let mut counts = vec![0usize; parts];
            for _ in 0..50_000 {
                counts[p.partition(&zipf.sample(&mut rng))] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "empty partition with {parts} targets: {counts:?}"
            );
        }
    }

    #[test]
    fn composite_partitioner_chi_squared_over_hot_key_subs() {
        // The CL-P spread path: one hot primary key, sequential sub-ids.
        // Sub-partitions of the hot key must land uniformly.
        let n = 16usize;
        let p = CompositePartitioner::new(n);
        let subs = 8_000u32;
        let mut counts = vec![0f64; n];
        for sub in 0..subs {
            counts[p.partition(&(42u64, sub))] += 1.0;
        }
        let expected = f64::from(subs) / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|c| (c - expected) * (c - expected) / expected)
            .sum();
        assert!(chi2 < 37.7, "χ² = {chi2:.1} over {n} partitions");
    }
}
