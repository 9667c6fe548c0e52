//! A Zipf sampler over item ids `0..v`.
//!
//! Item `i` (0-based) is drawn with probability proportional to
//! `1 / (i + 1)^s`. Implemented by inverse-CDF lookup over a precomputed
//! cumulative table — O(v) memory, O(log v) per sample, numerically exact
//! enough for workload generation (and property-tested for monotonicity and
//! frequency ordering).

use rand::Rng;

/// Zipf-distributed sampler over `0..vocab_size`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    skew: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `vocab_size` items with skew exponent `s ≥ 0`
    /// (`s = 0` is uniform; real text corpora sit near `s ≈ 1`).
    ///
    /// # Panics
    /// Panics if `vocab_size == 0` or `s` is negative/non-finite.
    pub fn new(vocab_size: u32, s: f64) -> Self {
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "skew must be a finite non-negative number"
        );
        let mut cumulative = Vec::with_capacity(vocab_size as usize);
        let mut total = 0.0f64;
        for i in 0..vocab_size {
            total += 1.0 / f64::from(i + 1).powf(s);
            cumulative.push(total);
        }
        Self {
            cumulative,
            skew: s,
        }
    }

    /// The vocabulary size.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the table is built from 0..vocab_size, a u32 — len fits u32"
    )]
    pub fn vocab_size(&self) -> u32 {
        self.cumulative.len() as u32
    }

    /// The skew exponent.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Draws one item id in `0..vocab_size`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "partition_point ≤ len ≤ u32::MAX — see vocab_size"
    )]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let total = *self.cumulative.last().expect("non-empty table");
        let needle = rng.gen::<f64>() * total;
        // First index whose cumulative weight exceeds the needle.
        self.cumulative.partition_point(|&c| c <= needle) as u32
    }

    /// The probability of item `i` (for analysis and Eq.-4 estimates).
    pub fn probability(&self, i: u32) -> f64 {
        let total = *self.cumulative.last().expect("non-empty table");
        let prev = if i == 0 {
            0.0
        } else {
            self.cumulative[(i - 1) as usize]
        };
        (self.cumulative[i as usize] - prev) / total
    }

    /// Relative frequencies of the `top_n` most likely items, descending —
    /// matching the input shape of
    /// `topk_rankings::bounds::expected_posting_list_len`.
    pub fn top_frequencies(&self, top_n: usize) -> Vec<f64> {
        let cap = u32::try_from(top_n)
            .unwrap_or(u32::MAX)
            .min(self.vocab_size());
        (0..cap).map(|i| self.probability(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn skew_orders_frequencies() {
        let z = ZipfSampler::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 50];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Item 0 must dominate item 10, which must dominate item 40.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
        // Rough magnitude: p(0)/p(9) = 10^1.2 ≈ 15.8.
        let ratio = f64::from(counts[0]) / f64::from(counts[9].max(1));
        assert!((8.0..32.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count = {c}");
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(200, 0.9);
        let sum: f64 = (0..200).map(|i| z.probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Monotone non-increasing.
        for i in 1..200 {
            assert!(z.probability(i) <= z.probability(i - 1) + 1e-12);
        }
    }

    #[test]
    fn top_frequencies_shape() {
        let z = ZipfSampler::new(10, 1.0);
        assert_eq!(z.top_frequencies(3).len(), 3);
        assert_eq!(z.top_frequencies(99).len(), 10);
    }

    #[test]
    fn top_frequencies_saturates_oversized_requests() {
        // Requests beyond u32::MAX must clamp to the vocabulary, not wrap:
        // the old `top_n as u32` turned 2^32 into 0 and returned nothing.
        let z = ZipfSampler::new(10, 1.0);
        assert_eq!(z.top_frequencies(1usize << 32).len(), 10);
        assert_eq!(z.top_frequencies(usize::MAX).len(), 10);
    }

    #[test]
    #[should_panic(expected = "vocabulary")]
    fn rejects_empty_vocabulary() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn rejects_negative_skew() {
        let _ = ZipfSampler::new(10, -1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = ZipfSampler::new(1000, 1.0);
        let a: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
