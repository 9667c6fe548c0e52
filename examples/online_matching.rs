//! Online matching with the range-search index: the batch join answers
//! "who matches whom" once; the [`topk_simjoin::RankingIndex`] answers
//! "who matches *this new member*" as registrations arrive.
//!
//! ```text
//! cargo run --release --example online_matching
//! ```

// The library-code rules of `[workspace.lints.clippy]` do not bind an example.
#![allow(clippy::cast_precision_loss)]

use std::time::Instant;

use topk_datagen::CorpusProfile;
use topk_rankings::Ranking;
use topk_simjoin::RankingIndex;

fn main() {
    // Existing member base.
    let members = CorpusProfile {
        name: "members".into(),
        num_records: 20_000,
        vocab_size: 8_000,
        zipf_skew: 0.9,
        k: 10,
        near_dup_rate: 0.3,
        seed: 0x0171,
    }
    .generate();

    let build_start = Instant::now();
    let mut index = RankingIndex::build(&members, 0.3).expect("index build failed");
    println!(
        "indexed {} member profiles in {:.1} ms (k = {}, θ_max = {})",
        index.len(),
        build_start.elapsed().as_secs_f64() * 1e3,
        index.k(),
        index.theta_max()
    );

    // New members register one at a time: query, then insert.
    let newcomers = CorpusProfile {
        name: "newcomers".into(),
        num_records: 200,
        vocab_size: 8_000,
        zipf_skew: 0.9,
        k: 10,
        near_dup_rate: 0.3,
        seed: 0x0172,
    }
    .generate();

    let mut total_matches = 0usize;
    let query_start = Instant::now();
    for (i, newcomer) in newcomers.iter().enumerate() {
        let profile = Ranking::new_unchecked(1_000_000 + i as u64, newcomer.items().to_vec());
        let matches = index.range_query(&profile, 0.15).expect("query failed");
        total_matches += matches.len();
        if i < 3 {
            println!(
                "  newcomer {} → {} matches{}",
                profile.id(),
                matches.len(),
                matches
                    .first()
                    .map(|(id, d)| format!(", best: member {id} at raw distance {d}"))
                    .unwrap_or_default()
            );
        }
        index.insert_ranking(&profile).expect("insert failed");
    }
    let elapsed = query_start.elapsed();
    println!(
        "\nprocessed {} registrations (query + insert) in {:.1} ms — {:.2} ms each, {} matches total",
        newcomers.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / newcomers.len() as f64,
        total_matches
    );
    println!("index now holds {} profiles", index.len());
}
