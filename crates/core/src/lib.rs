//! Distributed similarity joins over top-k rankings — a from-scratch Rust
//! reproduction of Milchevski & Michel, *“Distributed Similarity Joins over
//! Top-K Rankings”*, EDBT 2020, executing on the [`minispark`] dataflow
//! engine instead of Apache Spark.
//!
//! # Algorithms
//!
//! | Function | Paper name | Idea |
//! |---|---|---|
//! | [`vj_join`] | VJ | Vernica-Join adapted to rankings: frequency ordering, prefix filtering (by default each record's weighted prefix, never longer than the paper's count prefix; see [`PrefixKind`](topk_rankings::PrefixKind)), per-token groups, verification behind a position filter (§4; the paper's group-local inverted index would prune nothing here, see [`kernels`]) |
//! | [`vj_nl_join`] | VJ-NL | same partitioning, iterator nested-loop verification (§4.1) |
//! | [`cl_join`] | CL | Ordering → Clustering (θc) → centroid Joining (θ + 2θc, Lemma 5.1/5.3) → triangle-filtered Expansion (§5) |
//! | [`clp_join`] | CL-P | CL plus repartitioning of oversized posting lists (Algorithm 3, §6) |
//! | [`vj_repartitioned_join`] | — | the repartitioned join standalone (ablation) |
//! | [`brute_force_join`] | — | exact quadratic ground truth |
//!
//! All of them return the identical pair set — an invariant enforced by this
//! repository's test suite against the brute-force baseline.
//!
//! # One flat driver, one CL driver, N spaces
//!
//! The paper's dataflow — order by frequency → emit prefix tokens → group by
//! token → per-group kernel, each pair kept by the one group that owns it —
//! exists once, in [`pipeline`]. It
//! does not depend on the distance: a similarity space supplies a record's
//! prefix length, whether its threshold admits token-disjoint pairs, and the
//! per-pair decision ([`kernels`]). Three spaces do — Footrule (above),
//! variable-length Footrule ([`mod@varlen_join`], footnote 1 of the paper) and
//! Jaccard ([`jaccard_join`], §8) — and all their flat joins share one
//! driver body ([`vj`]).
//!
//! CL and CL-P exist once too, in [`cl`]: clustering at θc, the centroid
//! join at θ + 2θc and Algorithm 2's expansion use one property of the
//! distance — the triangle inequality. A space that is a metric adds its two
//! triangle predicates (exact for integer Footrule, ε-guarded for `f64`
//! Jaccard) and a counted full verification, and gets both drivers; the
//! variable-length space is not a metric across lengths and stays flat.
//!
//! # Two-relation (R-S) joins and arrivals
//!
//! The pipeline takes a list of relations; a self-join is its one-relation
//! case. Every driver therefore has an R-S entry point joining two
//! relations whose id spaces may overlap: [`vj_join_rs`],
//! [`vj_nl_join_rs`], [`cl_join_rs`], [`jaccard_vj_join_rs`],
//! [`varlen_join_rs`], with [`brute_force_join_rs`] as ground truth. For
//! arrival streams against a standing corpus, see [`ArrivalJoin`].
//!
//! # Example
//!
//! ```
//! use minispark::{Cluster, ClusterConfig};
//! use topk_rankings::Ranking;
//! use topk_simjoin::{cl_join, JoinConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::local(4));
//! let data = vec![
//!     Ranking::new(1, vec![1, 2, 3, 4, 5]).unwrap(),
//!     Ranking::new(2, vec![2, 1, 3, 4, 5]).unwrap(),
//!     Ranking::new(3, vec![9, 8, 7, 6, 5]).unwrap(),
//! ];
//! let outcome = cl_join(&cluster, &data, &JoinConfig::new(0.2)).unwrap();
//! assert_eq!(outcome.pairs, vec![(1, 2)]);
//! ```

#![warn(missing_docs)]
// Unit tests are exempt from the cast and discarded-`Result` rules (for the
// unwrap/panic/indexing rules `clippy.toml` says the same).
#![cfg_attr(
    test,
    allow(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod arrivals;
pub mod baseline;
pub mod centroid_join;
pub mod cl;
pub mod clustering;
pub mod config;
pub mod expansion;
pub mod index;
pub mod invariants;
pub mod jaccard_join;
pub mod kernels;
pub mod pipeline;
pub mod report;
pub mod serving;
pub mod stats;
pub mod varlen_join;
pub mod vj;
pub mod wal;

use std::time::Duration;

pub use arrivals::ArrivalJoin;
pub use baseline::{brute_force_join, brute_force_join_rs};
pub use cl::{cl_join, cl_join_rs, clp_join};
pub use config::JoinConfig;
pub use index::RankingIndex;
pub use jaccard_join::{
    jaccard_brute_force, jaccard_brute_force_rs, jaccard_cl_join, jaccard_clp_join,
    jaccard_vj_join, jaccard_vj_join_rs, JaccardConfig,
};
pub use minispark::SkewBudget;
pub use report::{runs_to_json, RunReport, RUN_REPORT_SCHEMA};
pub use serving::{
    serving_router, ReplayStats, ServingConfig, ServingError, ServingIndex, ServingServer,
    ServingStats, UpsertOutcome,
};
pub use stats::{JoinStats, StatsSnapshot};
pub use varlen_join::{varlen_brute_force, varlen_brute_force_rs, varlen_join, varlen_join_rs};
pub use vj::{vj_join, vj_join_rs, vj_nl_join, vj_nl_join_rs, vj_repartitioned_join};
pub use wal::{WalError, WalRecord, WalReplay, WalStore};

use minispark::Cluster;
use topk_rankings::{Ranking, RankingId};

/// Errors raised by the join entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// A threshold was outside `[0, 1]` or not finite.
    InvalidThreshold(f64),
    /// A query threshold above the `theta_max` its index was built for: the
    /// stored prefixes cannot guarantee a complete answer beyond it.
    ThresholdAboveIndexBound {
        /// The threshold asked for.
        theta: f64,
        /// The bound the index was built with.
        theta_max: f64,
    },
    /// The partitioning threshold δ was zero.
    InvalidPartitionThreshold,
    /// The dataset mixes ranking lengths (the paper works with fixed-length
    /// rankings; for variable lengths the distance bounds would have to be
    /// length-pair specific, see footnote 1 of the paper).
    MixedRankingLengths {
        /// Length of the first ranking seen.
        expected: usize,
        /// The conflicting length.
        found: usize,
    },
    /// Two rankings share an id. Ids key the cluster tables and the result
    /// pairs, so they must be unique within a dataset.
    DuplicateRankingId(u64),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::InvalidThreshold(t) => {
                write!(f, "threshold {t} is not a normalized distance in [0, 1]")
            }
            JoinError::ThresholdAboveIndexBound { theta, theta_max } => write!(
                f,
                "threshold {theta} is above theta_max = {theta_max}, the largest \
                 threshold this index answers completely"
            ),
            JoinError::InvalidPartitionThreshold => {
                write!(f, "the partitioning threshold δ must be at least 1")
            }
            JoinError::MixedRankingLengths { expected, found } => write!(
                f,
                "dataset mixes ranking lengths (k = {expected} and k = {found})"
            ),
            JoinError::DuplicateRankingId(id) => {
                write!(f, "ranking id {id} appears more than once in the dataset")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Result of a join run: the (sorted, distinct) id pairs, the filter
/// counters, and the wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    /// All result pairs, sorted. Self-joins normalize to `(a, b)` with
    /// `a < b`; R-S joins (`*_rs` entry points) emit `(left id, right id)`
    /// — no `a < b` ordering is implied there, because the two relations'
    /// id spaces may overlap.
    pub pairs: Vec<(RankingId, RankingId)>,
    /// Filter/verification counters.
    pub stats: StatsSnapshot,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl JoinOutcome {
    /// An empty outcome (empty input dataset).
    pub fn empty(elapsed: Duration) -> Self {
        Self {
            pairs: Vec::new(),
            stats: StatsSnapshot::default(),
            elapsed,
        }
    }
}

/// The algorithms under investigation (§7), as a dispatchable enum for
/// harnesses and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact quadratic baseline.
    BruteForce,
    /// Vernica Join. The paper verifies each group through a group-local
    /// inverted index; here it runs VJ-NL's nested loop, which verifies the
    /// same candidates ([`crate::kernels`]).
    Vj,
    /// Vernica Join with nested-loop (iterator) verification.
    VjNl,
    /// VJ-NL with posting-list repartitioning (ablation target).
    VjRepartitioned,
    /// The clustering algorithm.
    Cl,
    /// The clustering algorithm with repartitioning.
    ClP,
}

impl Algorithm {
    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::BruteForce => "BF",
            Algorithm::Vj => "VJ",
            Algorithm::VjNl => "VJ-NL",
            Algorithm::VjRepartitioned => "VJ-P",
            Algorithm::Cl => "CL",
            Algorithm::ClP => "CL-P",
        }
    }

    /// The four algorithms compared throughout the paper's evaluation.
    pub fn paper_lineup() -> [Algorithm; 4] {
        [
            Algorithm::Vj,
            Algorithm::VjNl,
            Algorithm::Cl,
            Algorithm::ClP,
        ]
    }

    /// Runs the algorithm.
    pub fn run(
        &self,
        cluster: &Cluster,
        data: &[Ranking],
        config: &JoinConfig,
    ) -> Result<JoinOutcome, JoinError> {
        match self {
            Algorithm::BruteForce => brute_force_join(cluster, data, config.theta),
            Algorithm::Vj => vj_join(cluster, data, config),
            Algorithm::VjNl => vj_nl_join(cluster, data, config),
            Algorithm::VjRepartitioned => vj_repartitioned_join(cluster, data, config),
            Algorithm::Cl => cl_join(cluster, data, config),
            Algorithm::ClP => clp_join(cluster, data, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minispark::ClusterConfig;

    #[test]
    fn algorithm_names_match_the_paper() {
        assert_eq!(Algorithm::Vj.name(), "VJ");
        assert_eq!(Algorithm::VjNl.name(), "VJ-NL");
        assert_eq!(Algorithm::Cl.name(), "CL");
        assert_eq!(Algorithm::ClP.name(), "CL-P");
        assert_eq!(Algorithm::paper_lineup().len(), 4);
    }

    #[test]
    fn all_algorithms_agree_on_a_tiny_dataset() {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![
            Ranking::new(1, vec![1, 2, 3, 4, 5]).unwrap(),
            Ranking::new(2, vec![2, 1, 3, 4, 5]).unwrap(),
            Ranking::new(3, vec![1, 2, 3, 5, 4]).unwrap(),
            Ranking::new(4, vec![9, 8, 7, 6, 1]).unwrap(),
        ];
        let config = JoinConfig::new(0.2).with_partition_threshold(2);
        let expected = Algorithm::BruteForce
            .run(&cluster, &data, &config)
            .unwrap()
            .pairs;
        for algo in [
            Algorithm::Vj,
            Algorithm::VjNl,
            Algorithm::VjRepartitioned,
            Algorithm::Cl,
            Algorithm::ClP,
        ] {
            let got = algo.run(&cluster, &data, &config).unwrap().pairs;
            assert_eq!(got, expected, "{}", algo.name());
        }
    }

    #[test]
    fn join_error_messages_are_informative() {
        assert!(JoinError::InvalidThreshold(1.5).to_string().contains("1.5"));
        assert!(JoinError::InvalidPartitionThreshold
            .to_string()
            .contains("δ"));
        let e = JoinError::MixedRankingLengths {
            expected: 10,
            found: 25,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains("25"));
    }
}
