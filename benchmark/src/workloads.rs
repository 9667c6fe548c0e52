//! The six workloads: names, frozen sizes, and why each exists.
//!
//! Sizes were calibrated once on a two-core machine so that one timed join
//! (or one R-S iteration) takes about a second and a whole run, set-up and
//! output checks included, stays under ~16 s. They are frozen here;
//! changing one is a change to the benchmark, not to the system.
//!
//! So are the task slots of the batch cluster. `vj-sparse` runs on two: its
//! dataflow is 1.4× faster there than on one. The three workloads on the
//! heavy-skew corpus run on **one**: on two slots the same join gains nothing
//! on this two-core machine (`vj-dense` takes 1.0–1.9× as long, `clp-dense`
//! 1.1–1.7×, `rs-arrivals` 0.9×), and its wall time swings by ±25 % from one
//! join to the next with how the two threads happen to collide, which no
//! statistic of a few dozen joins steadies. The traced pass times both and reports the ratio
//! (`minispark.two_slot_speedup`), so a gain in scaling still shows.

use crate::layers::{Algo, Profile, SLOTS};

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A batch self-join, repeated on fresh clusters.
    Batch(Algo),
    /// `vj_join_rs` once per iteration, then the arrivals streamed through
    /// `ArrivalJoin` in mini-batches.
    RsArrivals {
        /// Arrivals per iteration.
        arrivals: usize,
        /// Mini-batch size.
        batch: usize,
    },
    /// A durable serving index behind the HTTP server, open loop.
    Serve(Mix),
}

/// The request mix of a serving workload, in percent of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// `GET /query`.
    pub query_pct: u64,
    /// Single-ranking `POST /rankings` replacing a live id.
    pub upsert_pct: u64,
    /// `DELETE /rankings/{id}` followed by a re-inserting `POST` as the
    /// same connection's next request.
    pub delete_pct: u64,
    /// Offered rate of the open loop, requests per second.
    pub rate_per_s: f64,
    /// WAL records between snapshots.
    pub snapshot_every: u64,
    /// Tombstone share that triggers a compaction.
    pub compact_ratio: f64,
    /// Whether the primary operation (the one `latency_*` reports) is the
    /// upsert rather than the query.
    pub primary_is_write: bool,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator preset of the corpus.
    pub profile: Profile,
    /// Corpus size (frozen).
    pub n: usize,
    /// Join threshold, or the serving index's `theta_max`.
    pub theta: f64,
    /// Task slots of the batch cluster, or HTTP workers of the server.
    pub slots: usize,
    /// What runs.
    pub kind: Kind,
}

/// θ of every `GET /query` (inside the serving `theta_max` of 0.3).
pub const QUERY_THETA: f64 = 0.25;

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: &[Workload] = &[
    // Prefix of 3 tokens over a mild-skew vocabulary: groups are tiny, so
    // ordering, prefix emit, shuffle and dedup do most of the work.
    Workload {
        name: "vj-sparse",
        profile: Profile::Dblp,
        n: 300_000,
        theta: 0.1,
        slots: SLOTS,
        kind: Kind::Batch(Algo::Vj),
    },
    // Prefix of 7 tokens over a heavy-skew vocabulary: the group kernel and
    // verification do most of the work.
    Workload {
        name: "vj-dense",
        profile: Profile::Orku,
        n: 13_000,
        theta: 0.4,
        slots: 1,
        kind: Kind::Batch(Algo::Vj),
    },
    // The paper's headline algorithm on the vj-dense corpus.
    Workload {
        name: "clp-dense",
        profile: Profile::Orku,
        n: 13_000,
        theta: 0.4,
        slots: 1,
        kind: Kind::Batch(Algo::Clp),
    },
    // The bipartite path, and the index probe-then-insert path with no
    // lock, WAL or HTTP around it.
    Workload {
        name: "rs-arrivals",
        profile: Profile::Orku,
        n: 40_000,
        theta: 0.3,
        slots: 1,
        kind: Kind::RsArrivals {
            arrivals: 4_000,
            batch: 64,
        },
    },
    // Index probe + HTTP dominate; WAL and maintenance nearly idle.
    Workload {
        name: "serve-read",
        profile: Profile::Orku,
        n: 50_000,
        theta: 0.3,
        slots: SLOTS,
        kind: Kind::Serve(Mix {
            query_pct: 95,
            upsert_pct: 5,
            delete_pct: 0,
            rate_per_s: 1000.0,
            snapshot_every: 512,
            compact_ratio: 0.3,
            primary_is_write: false,
        }),
    },
    // Small probes, but snapshots and compactions run inline under the WAL
    // mutex and the index write lock. The maintenance triggers are scaled
    // down from the defaults (512 records, 30 %) so that a run of a few
    // thousand writes sees dozens of snapshot and several compaction cycles
    // and the write tail sits inside the stalls, not at their edge.
    Workload {
        name: "serve-write",
        profile: Profile::Orku,
        n: 10_000,
        theta: 0.3,
        slots: SLOTS,
        kind: Kind::Serve(Mix {
            query_pct: 50,
            upsert_pct: 45,
            delete_pct: 5,
            rate_per_s: 1000.0,
            snapshot_every: 32,
            compact_ratio: 0.1,
            primary_is_write: true,
        }),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_mixes_sum_to_one_hundred() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|other| other.name != w.name));
            assert_eq!(find(w.name), Some(w));
            if let Kind::Serve(mix) = w.kind {
                assert_eq!(mix.query_pct + mix.upsert_pct + mix.delete_pct, 100);
                assert!(QUERY_THETA <= w.theta);
            }
        }
        assert_eq!(find("nope"), None);
    }
}
