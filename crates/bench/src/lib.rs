//! Experiment harness for the EDBT 2020 reproduction.
//!
//! Every table and figure of the paper's evaluation (§7) has a runner in
//! [`figures`] that produces the same series the paper plots, as
//! [`report::Row`]s. The `experiments` binary is their one frontend: full
//! sweeps, CSV output (the numbers in `EXPERIMENTS.md` come from it).
//! Performance regressions are not measured here but by the layered
//! `benchmark/` package (`BENCHMARK.json`).
//!
//! Workload sizes scale with the `TOPK_SCALE` environment variable
//! (default 1.0); the synthetic corpora stand in for DBLP/ORKU as described
//! in `DESIGN.md`.

#![warn(missing_docs)]

pub mod capture;
pub mod datasets;
pub mod figures;
pub mod report;

pub use datasets::Workload;
pub use report::Row;
