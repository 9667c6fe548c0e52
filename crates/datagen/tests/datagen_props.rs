//! Property tests for the workload generators: structural validity,
//! determinism, and the distance-preservation contract of the dataset
//! increase.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashSet;

use proptest::prelude::*;
use topk_datagen::{increase_dataset, CorpusProfile};
use topk_rankings::distance::footrule_raw;

fn profile(n: usize, k: usize, vocab: u32, seed: u64, dup: f64) -> CorpusProfile {
    CorpusProfile {
        name: "prop".into(),
        num_records: n,
        vocab_size: vocab,
        zipf_skew: 1.0,
        k,
        near_dup_rate: dup,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_rankings_are_valid(
        n in 1usize..120,
        k in 1usize..12,
        seed in any::<u64>(),
        dup in 0.0f64..0.9,
    ) {
        let vocab = (k as u32).max(20);
        let data = profile(n, k, vocab, seed, dup).generate();
        prop_assert_eq!(data.len(), n);
        for (idx, r) in data.iter().enumerate() {
            prop_assert_eq!(r.id(), idx as u64);
            prop_assert_eq!(r.k(), k);
            let unique: HashSet<u32> = r.items().iter().copied().collect();
            prop_assert_eq!(unique.len(), k, "duplicate items in record {}", idx);
            prop_assert!(r.items().iter().all(|&i| i < vocab));
        }
    }

    #[test]
    fn generation_is_deterministic(seed in any::<u64>()) {
        let a = profile(60, 8, 40, seed, 0.3).generate();
        let b = profile(60, 8, 40, seed, 0.3).generate();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn increase_preserves_within_copy_distances(
        seed in any::<u64>(),
        times in 2usize..5,
    ) {
        let base = profile(40, 6, 30, seed, 0.2).generate();
        let increased = increase_dataset(&base, times, seed ^ 0xABCD);
        let n = base.len();
        prop_assert_eq!(increased.len(), times * n);
        for copy in 1..times {
            for i in (0..n).step_by(7) {
                for j in (0..n).step_by(5) {
                    if i == j {
                        continue;
                    }
                    prop_assert_eq!(
                        footrule_raw(&increased[copy * n + i], &increased[copy * n + j]),
                        footrule_raw(&base[i], &base[j]),
                        "copy {} pair ({}, {})",
                        copy,
                        i,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn increase_preserves_the_domain(seed in any::<u64>()) {
        let base = profile(50, 6, 30, seed, 0.2).generate();
        let domain: HashSet<u32> = base.iter().flat_map(|r| r.items().iter().copied()).collect();
        let x3 = increase_dataset(&base, 3, seed);
        for r in &x3 {
            for item in r.items() {
                prop_assert!(domain.contains(item), "item {} left the domain", item);
            }
        }
    }
}
