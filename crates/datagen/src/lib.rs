//! Synthetic top-k ranking workloads for the EDBT 2020 reproduction.
//!
//! The paper evaluates on the DBLP and ORKU(T) set-similarity benchmark
//! datasets, truncated to top-k rankings (§7: "we simply take the first k
//! tokens in the sets, and consider them as items in the rankings", dropping
//! records shorter than `k`). Neither corpus is redistributable here, so this
//! crate generates synthetic stand-ins that reproduce the properties the
//! evaluation actually exercises:
//!
//! * **Zipf-distributed token frequencies** ([`zipf`]) — skew is what drives
//!   prefix selectivity, posting-list skew and therefore the CL-P
//!   repartitioning benefit,
//! * **near-duplicate records** ([`corpus`]) — real corpora contain clusters
//!   of almost-identical records (similar paper titles, mirrored community
//!   pages); they are what the CL clustering phase harvests,
//! * the **×N dataset increase** ([`increase`]) used by the paper (following
//!   Vernica et al.): the item domain stays fixed and the join result grows
//!   ≈ linearly with the dataset size,
//! * plain **text IO** ([`io`]) so generated datasets can be persisted and
//!   shared between harness runs.

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

pub mod corpus;
pub mod increase;
pub mod io;
pub mod preprocess;
pub mod zipf;

pub use corpus::CorpusProfile;
pub use increase::increase_dataset;
pub use preprocess::{load_corpus_file, records_to_rankings, PreprocessStats};
pub use zipf::ZipfSampler;
