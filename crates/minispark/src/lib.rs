//! `minispark` — a small, self-contained distributed-dataflow engine in the
//! style of Apache Spark's RDD API, built as the execution substrate for the
//! EDBT 2020 top-k ranking similarity-join reproduction.
//!
//! The engine reproduces the mechanisms the paper's evaluation depends on:
//!
//! * **Partitioned datasets** ([`Dataset`]) with narrow transformations
//!   (`map`, `filter`, `flat_map`, `union`, …) executed one task per
//!   partition,
//! * **Wide transformations** (`group_by_key`, `reduce_by_key`, `distinct`,
//!   `partition_by`) implemented as hash **shuffles** with pluggable
//!   [`Partitioner`]s — including the composite `(key, random sub-key)`
//!   partitioning that CL-P's repartitioning uses; there is no shuffle
//!   join: a small side is broadcast and looked up in a narrow stage, as
//!   CL's expansion does with its cluster table,
//! * a **simulated cluster** ([`ClusterConfig`]): `nodes × executors × cores`
//!   bounded task slots scheduled over real threads, so varying the node
//!   count scales usable parallelism exactly like adding machines does for a
//!   CPU-bound Spark job,
//! * **broadcast variables** ([`Broadcast`]) mirroring Spark's cached
//!   per-node read-only values — the engine's one join strategy,
//! * **metrics** ([`MetricsReport`]): per-stage wall time, task counts,
//!   shuffle records/bytes and partition skew — the quantities the paper
//!   reasons about (posting-list skew, shuffle overhead of repartition
//!   joins) — plus every task's queued/started/finished span and slot id,
//!   the one store of task timings, with executor-utilization analytics
//!   ([`ExecutorAnalytics`]) read off them,
//! * **spill-to-disk** ([`spill`]): an external group-by that encodes
//!   overflowing groups to temporary run files and merges them, reproducing
//!   Spark's ability to spill shuffle data that iterator-style (VJ-NL)
//!   processing preserves and materialized indexes defeat,
//! * **skew handling** ([`skew`]): split budgets ([`SkewBudget`]), resolved
//!   against the exact group sizes of a grouped dataset, and a generic splitter that breaks oversized
//!   key groups into balanced ≤-budget chunks joined per chunk and per chunk
//!   pair — the paper's δ-repartitioning (§6) as a reusable subsystem,
//! * **tracing** ([`trace`]): an opt-in collector of driver phase spans and
//!   instant events (shuffle flushes, spill runs) and a Chrome
//!   `trace_event` exporter (Perfetto-loadable) that draws them together
//!   with the stage rows' task spans; a hand-rolled [`json`] value type backs
//!   the exporters without adding dependencies,
//! * **concurrency checking** ([`sched`], [`check`]): a deterministic,
//!   seed-driven [`Schedule`] mode for the executor (installed via
//!   [`ClusterConfig::with_schedule`]), yield-point hooks at claim / flush /
//!   spill boundaries, and a schedule-exploration harness that audits each
//!   run's task spans and flush marks (happens-before, slot exclusivity,
//!   flush barriers) and asserts
//!   that results are schedule- and slot-count-independent.
//!
//! Everything runs in one OS process; "distribution" means bounded
//! parallelism plus explicit shuffle boundaries with accounted data movement.
//! That preserves the paper's *relative* comparisons (which algorithm
//! shuffles/verifies less, how skew hurts, how node counts scale) while
//! absolute times naturally differ from an 8-node YARN cluster.
//!
//! # Example
//!
//! ```
//! use minispark::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::local(4));
//! let numbers = cluster.parallelize((0..1000).collect::<Vec<u32>>(), 8);
//! let evens = numbers.filter("evens", |n| n % 2 == 0);
//! let by_mod = evens
//!     .map("key-by-mod", |&n| (n % 10, n))
//!     .reduce_by_key("sum-per-mod", 4, |a, b| a + b);
//! let mut sums = by_mod.collect();
//! sums.sort();
//! assert_eq!(sums.len(), 5); // keys 0,2,4,6,8
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

pub mod broadcast;
pub mod check;
pub mod codec;
pub mod config;
pub mod dataset;
pub mod executor;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pair;
pub mod sched;
pub mod shuffle;
pub mod skew;
pub mod spill;
pub mod telemetry;
pub mod trace;

pub use broadcast::Broadcast;
pub use check::{audit_snapshot, check_determinism, schedule_matrix, AuditViolation, CheckFailure};
pub use codec::Codec;
pub use config::ClusterConfig;
pub use dataset::{Cluster, Dataset};
pub use http::{HttpServer, LiveServer, Request, Response, Router, TelemetrySource};
pub use json::Json;
pub use metrics::{MetricsReport, StageMetrics};
pub use sched::Schedule;
pub use shuffle::{CompositePartitioner, HashPartitioner, Partitioner};
pub use skew::{SkewBudget, SplitPlan, SplitStats};
pub use telemetry::{
    Counter, Gauge, Heartbeat, HistogramData, LiveHistogram, TelemetryRegistry, TelemetrySnapshot,
};
pub use trace::{ExecutorAnalytics, TraceCollector, TraceSnapshot};
