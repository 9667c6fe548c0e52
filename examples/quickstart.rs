//! Quickstart: the paper's own running examples, end to end.
//!
//! Reproduces Table 1 (the dating-portal movie lists), the §1.1 distance
//! computation over Table 2's sample dataset, and then runs all four join
//! algorithms on a small synthetic corpus, checking they agree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// The library-code rules of `[workspace.lints.clippy]` do not bind an example.
#![allow(clippy::unwrap_used)]

use minispark::{Cluster, ClusterConfig};
use topk_datagen::CorpusProfile;
use topk_rankings::{footrule_norm, footrule_raw, BoundSummary, Ranking};
use topk_simjoin::{Algorithm, JoinConfig};

fn main() {
    // ---- Table 1: favourite movies of three dating-portal members. ------
    // Items: 0 Pulp Fiction, 1 E.T., 2 Forrest Gump, 3 Indiana Jones,
    //        4 Titanic, 5 The Schindler List, 6 Lord of the Rings,
    //        7 Avengers.
    let movies = [
        "Pulp Fiction",
        "E.T.",
        "Forrest Gump",
        "Indiana Jones",
        "Titanic",
        "The Schindler List",
        "Lord of the Rings",
        "Avengers",
    ];
    let alice = Ranking::new(0, vec![0, 1, 2, 3, 4]).unwrap();
    let bob = Ranking::new(1, vec![5, 6, 7, 3, 1]).unwrap();
    let chris = Ranking::new(2, vec![3, 0, 2, 1, 4]).unwrap();

    println!("== Table 1: who should the portal match? ==");
    for (name, list) in [("Alice", &alice), ("Bob", &bob), ("Chris", &chris)] {
        let titles: Vec<&str> = list.items().iter().map(|&i| movies[i as usize]).collect();
        println!("  {name:<6} {titles:?}");
    }
    println!("  d(Alice, Bob)   = {:.3}", footrule_norm(&alice, &bob));
    println!(
        "  d(Alice, Chris) = {:.3}  ← similar taste, match them!",
        footrule_norm(&alice, &chris)
    );
    println!("  d(Bob, Chris)   = {:.3}", footrule_norm(&bob, &chris));

    // ---- §1.1: the Footrule distance on Table 2's sample rankings. ------
    let t1 = Ranking::new(1, vec![2, 5, 4, 3, 1]).unwrap();
    let t2 = Ranking::new(2, vec![1, 4, 5, 9, 0]).unwrap();
    println!("\n== Table 2 / §1.1: Spearman's Footrule for top-k lists ==");
    println!("  τ1 = {t1}, τ2 = {t2}");
    println!(
        "  F(τ1, τ2) = {} (raw), {:.3} (normalized by k(k+1) = 30)",
        footrule_raw(&t1, &t2),
        footrule_norm(&t1, &t2)
    );

    // ---- The pruning bounds behind the algorithms. -----------------------
    println!("\n== Pruning bounds for k = 10 ==");
    println!("  θ     raw   min-overlap ω   overlap prefix p   ordered prefix p_o");
    for theta in [0.1, 0.2, 0.3, 0.4] {
        let b = BoundSummary::new(10, theta);
        println!(
            "  {theta:<5} {:<5} {:<15} {:<18} {:?}",
            b.theta_raw, b.min_overlap, b.overlap_prefix, b.ordered_prefix
        );
    }

    // ---- The distributed join on a synthetic corpus. ---------------------
    println!("\n== Similarity join on a synthetic DBLP-like corpus ==");
    let cluster = Cluster::new(ClusterConfig::local(4).with_default_partitions(16));
    let data = CorpusProfile::dblp_like(2_000, 10).generate();
    let config = JoinConfig::new(0.2).with_partition_threshold(200);
    println!("  {} rankings of k = 10, θ = {}", data.len(), config.theta);

    let mut reference: Option<Vec<(u64, u64)>> = None;
    for algo in [
        Algorithm::Vj,
        Algorithm::VjNl,
        Algorithm::Cl,
        Algorithm::ClP,
    ] {
        let outcome = algo.run(&cluster, &data, &config).expect("join failed");
        println!(
            "  {:<5}  {:>7} pairs in {:>8.1} ms   [{}]",
            algo.name(),
            outcome.pairs.len(),
            outcome.elapsed.as_secs_f64() * 1e3,
            outcome.stats,
        );
        match &reference {
            None => reference = Some(outcome.pairs),
            Some(expected) => assert_eq!(&outcome.pairs, expected, "algorithms disagree!"),
        }
    }
    println!("  ✓ all four algorithms returned the identical result set");
}
