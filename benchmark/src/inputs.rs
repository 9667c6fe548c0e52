//! Seeded inputs: corpora, arrivals, query probes. Same seed ⇒ same inputs.

use std::time::{Duration, Instant};

use crate::layers::{generate, ranking, Profile, Ranking, FOREIGN_QUERY_ID};
use crate::num::{idx, n64};

/// splitmix64: the harness's own small generator, so request streams do not
/// depend on the measured crates.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// An index into a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        idx(self.below(n64(len)))
    }
}

/// An independent sub-seed of `seed` for the input named by `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// FNV-1a over ids and items: the input checksum of the provenance stamp.
pub fn checksum(data: &[Ranking]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in data {
        eat(r.id());
        for &item in r.items() {
            eat(u64::from(item));
        }
    }
    hash
}

/// One more than the largest item id in `data`.
pub fn vocab_of(data: &[Ranking]) -> u32 {
    data.iter()
        .flat_map(|r| r.items().iter().copied())
        .max()
        .map_or(1, |m| m.saturating_add(1))
}

/// A near-duplicate of `base` under a new id: one adjacent swap, and half
/// the time one item replaced by a random vocabulary item.
pub fn perturbed(base: &Ranking, id: u64, vocab: u32, rng: &mut SplitMix) -> Ranking {
    let mut items = base.items().to_vec();
    let pos = rng.index(items.len() - 1);
    items.swap(pos, pos + 1);
    if rng.below(2) == 0 {
        let slot = rng.index(items.len());
        loop {
            let candidate = u32::try_from(rng.below(u64::from(vocab))).expect("below a u32 bound");
            if !items.contains(&candidate) {
                items[slot] = candidate;
                break;
            }
        }
    }
    ranking(id, items)
}

/// The corpus of a workload.
pub fn corpus(profile: Profile, n: usize, seed: u64) -> Vec<Ranking> {
    generate(profile, n, mix(seed, 1))
}

/// `count` arrivals with ids `n..n + count`: alternately a perturbed corpus
/// record and a fresh record from the same generator under another seed.
pub fn arrivals(profile: Profile, corpus: &[Ranking], count: usize, seed: u64) -> Vec<Ranking> {
    let mut rng = SplitMix::new(mix(seed, 2));
    let vocab = vocab_of(corpus);
    let fresh = generate(profile, corpus.len(), mix(seed, 3));
    let first_id = n64(corpus.len());
    (0..count)
        .map(|i| {
            let id = first_id + n64(i);
            if i % 2 == 0 {
                perturbed(&corpus[rng.index(corpus.len())], id, vocab, &mut rng)
            } else {
                ranking(id, fresh[i].items().to_vec())
            }
        })
        .collect()
}

/// `count` query probes: perturbed corpus records under the anonymous
/// query id, so a probe never excludes a stored ranking as "itself".
pub fn probes(corpus: &[Ranking], count: usize, seed: u64) -> Vec<Ranking> {
    let mut rng = SplitMix::new(mix(seed, 4));
    let vocab = vocab_of(corpus);
    (0..count)
        .map(|_| {
            perturbed(
                &corpus[rng.index(corpus.len())],
                FOREIGN_QUERY_ID,
                vocab,
                &mut rng,
            )
        })
        .collect()
}

/// How often set-up is repeated: one or two timings of a few milliseconds
/// are not steady, so cheap set-ups repeat more often.
pub struct SetupReps {
    repeat: bool,
    done: usize,
    start: Instant,
}

impl SetupReps {
    const MIN: usize = 5;
    const MAX: usize = 100;
    const BUDGET: Duration = Duration::from_millis(1_000);

    /// Counts repetitions from now; without `repeat` there is exactly one.
    pub fn new(repeat: bool) -> Self {
        Self {
            repeat,
            done: 0,
            start: Instant::now(),
        }
    }

    /// Whether to set up (again): at least [`Self::MIN`] times, then until
    /// a second has gone by or [`Self::MAX`] repetitions are in.
    pub fn again(&mut self) -> bool {
        let go = if self.repeat {
            self.done < Self::MIN || (self.done < Self::MAX && self.start.elapsed() < Self::BUDGET)
        } else {
            self.done == 0
        };
        self.done += 1;
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = corpus(Profile::Orku, 400, 11);
        let b = corpus(Profile::Orku, 400, 11);
        let c = corpus(Profile::Orku, 400, 12);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        let arr_a = arrivals(Profile::Orku, &a, 50, 11);
        assert_eq!(
            checksum(&arr_a),
            checksum(&arrivals(Profile::Orku, &b, 50, 11))
        );
        assert_ne!(
            checksum(&arr_a),
            checksum(&arrivals(Profile::Orku, &a, 50, 12))
        );
        assert_eq!(arr_a[0].id(), 400);
        assert_eq!(checksum(&probes(&a, 20, 11)), checksum(&probes(&b, 20, 11)));
    }

    #[test]
    fn perturbed_rankings_stay_valid_and_close() {
        let data = corpus(Profile::Dblp, 200, 5);
        let vocab = vocab_of(&data);
        let mut rng = SplitMix::new(9);
        for base in &data {
            let p = perturbed(base, 10_000, vocab, &mut rng);
            assert_eq!(p.k(), base.k());
            let shared = p.items().iter().filter(|i| base.contains(**i)).count();
            assert!(shared >= base.k() - 1);
        }
    }
}
