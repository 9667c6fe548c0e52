//! Umbrella crate of the reproduction: re-exports the four building-block
//! crates and provides the small helpers shared by the repository's examples
//! and cross-crate integration tests.
//!
//! The actual functionality lives in:
//!
//! * [`topk_rankings`] — ranking model, Footrule metric, pruning bounds,
//! * [`minispark`] — the Spark-like dataflow engine,
//! * [`topk_datagen`] — synthetic DBLP/ORKU-like workloads,
//! * [`topk_simjoin`] — the paper's algorithms (VJ, VJ-NL, CL, CL-P).

#![warn(missing_docs)]

pub use minispark;
pub use topk_datagen;
pub use topk_rankings;
pub use topk_simjoin;

use minispark::{Cluster, ClusterConfig};
use topk_rankings::Ranking;

/// A small local cluster suitable for examples and tests.
pub fn demo_cluster() -> Cluster {
    Cluster::new(ClusterConfig::local(4).with_default_partitions(16))
}

/// Pretty-prints a result-pair sample with resolved rankings.
pub fn format_pairs(pairs: &[(u64, u64)], data: &[Ranking], limit: usize) -> String {
    use std::fmt::Write as _;
    let by_id: std::collections::HashMap<u64, &Ranking> =
        data.iter().map(|r| (r.id(), r)).collect();
    let mut out = String::new();
    for &(a, b) in pairs.iter().take(limit) {
        match (by_id.get(&a), by_id.get(&b)) {
            (Some(ra), Some(rb)) => {
                let d = topk_rankings::footrule_norm(ra, rb);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write into a String is infallible"
                )]
                let _ = writeln!(out, "  {ra}  ↔  {rb}   (normalized distance {d:.3})");
            }
            _ => {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write into a String is infallible"
                )]
                let _ = writeln!(out, "  ({a}, {b})");
            }
        }
    }
    if pairs.len() > limit {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = writeln!(out, "  … and {} more pairs", pairs.len() - limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_cluster_is_usable() {
        let c = demo_cluster();
        assert_eq!(c.config().task_slots(), 4);
        assert_eq!(c.config().default_partitions, 16);
    }

    #[test]
    fn format_pairs_resolves_rankings() {
        let data = vec![
            Ranking::new(1, vec![1, 2, 3]).unwrap(),
            Ranking::new(2, vec![2, 1, 3]).unwrap(),
        ];
        let text = format_pairs(&[(1, 2)], &data, 10);
        assert!(text.contains("τ1[1,2,3]"));
        assert!(text.contains("distance"));
        // Unknown ids fall back to bare pairs; overflow is summarized.
        let text = format_pairs(&[(8, 9), (1, 2)], &data, 1);
        assert!(text.contains("(8, 9)"));
        assert!(text.contains("1 more"));
    }
}
