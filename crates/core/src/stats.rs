//! Join-run statistics: the filter/verification counters that explain *why*
//! one algorithm beats another (candidates generated, position-filter and
//! triangle-inequality prunes, clusters formed, …).
//!
//! A [`JoinStats`] is shared via `Arc` into the pipeline closures and
//! snapshotted at the end of a run; the driver then publishes the snapshot
//! to the cluster's telemetry registry ([`StatsSnapshot::publish`]), so the
//! live series are the run's own numbers. Its counters are atomics, but no task
//! touches them per pair: a join task counts into a plain [`KernelCounts`] it
//! owns across all its groups and flushes it with one `add` per counter when
//! it is done, so the shared cache lines move once per task, not once per
//! group or four times per candidate. (The index and CL's expansion flush
//! once per probe or closure call.)

use std::sync::atomic::{AtomicU64, Ordering};

use minispark::TelemetryRegistry;
use topk_rankings::verify::Verification;

/// Thread-safe counters updated during a join run.
#[derive(Debug, Default)]
pub struct JoinStats {
    /// Candidate pairs handed to verification (after candidate generation).
    pub candidates: AtomicU64,
    /// Candidates discarded by the position filter.
    pub position_pruned: AtomicU64,
    /// Candidates discarded by an overlap bound, count or rank weight: the
    /// overlap-signature filter's two stages (the signatures' count bound,
    /// then the weight planes' lower bound on the rank weight of items the
    /// two signatures prove absent — folded to 64 bits and, past k = 15,
    /// rounded down, so weaker than the exact weight), or the variable-length join's
    /// length filter.
    pub overlap_pruned: AtomicU64,
    /// Candidates for which the full (early-exit) distance was computed.
    pub verified: AtomicU64,
    /// Verified candidates that qualified as results, each pair once: a
    /// token-grouped join counts a pair only in the one group that owns it
    /// (`pipeline::owns`), so for the flat drivers this equals the number of
    /// output pairs. CL counts the qualifying pairs of each of its sub-joins
    /// (the θc clustering join, the centroid join, expansion's
    /// verifications), each once; that is not its output size, since the
    /// triangle bounds accept pairs unverified.
    pub result_pairs: AtomicU64,
    /// Expansion candidates discarded by the triangle lower bound.
    pub triangle_pruned: AtomicU64,
    /// Expansion candidates accepted by the triangle upper bound without a
    /// distance computation.
    pub triangle_accepted: AtomicU64,
    /// Non-singleton pivots of the clustering phase: pivots with a member
    /// other than themselves, or that are not their own home.
    pub clusters: AtomicU64,
    /// Singleton pivots: rankings that are their own home and nobody
    /// else's.
    pub singletons: AtomicU64,
    /// Posting lists split by CL-P's repartitioning.
    pub posting_lists_split: AtomicU64,
    /// Sub-partition R-S joins executed by CL-P.
    pub rs_joins: AtomicU64,
    /// Sub-partitions (chunks) created by skew-aware group splitting —
    /// CL-P's δ and the opt-in [`minispark::SkewBudget`] path alike.
    pub skew_chunks: AtomicU64,
    /// Chunk self-join / chunk-pair R-S tasks that the executor's dynamic
    /// claim placed on a non-home slot (work stealing backfilling idle
    /// slots; see [`minispark::executor::steal_count`]). 0 when no group
    /// was split; otherwise empty tasks that moved count too.
    pub skew_steals: AtomicU64,
}

impl JoinStats {
    /// Increments a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        // relaxed(counter): an independent monotonic counter — no other
        // memory is published with it, and the executor's thread join orders
        // all increments before any snapshot.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        // relaxed(read-after-join): torn-read tolerant — snapshots are taken
        // after the run's worker threads have joined, which already makes
        // every increment visible.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            candidates: load(&self.candidates),
            position_pruned: load(&self.position_pruned),
            overlap_pruned: load(&self.overlap_pruned),
            verified: load(&self.verified),
            result_pairs: load(&self.result_pairs),
            triangle_pruned: load(&self.triangle_pruned),
            triangle_accepted: load(&self.triangle_accepted),
            clusters: load(&self.clusters),
            singletons: load(&self.singletons),
            posting_lists_split: load(&self.posting_lists_split),
            rs_joins: load(&self.rs_joins),
            skew_chunks: load(&self.skew_chunks),
            skew_steals: load(&self.skew_steals),
        }
    }
}

/// The per-pair counters of one unit of work — a join task over its token
/// groups or join units, an index probe, one expansion closure call: plain
/// integers the work owns, [`flush`](KernelCounts::flush)ed into the shared
/// [`JoinStats`] once, when it is done. The only way a per-pair counter
/// moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// See [`JoinStats::candidates`].
    pub candidates: u64,
    /// See [`JoinStats::position_pruned`].
    pub position_pruned: u64,
    /// See [`JoinStats::overlap_pruned`].
    pub overlap_pruned: u64,
    /// See [`JoinStats::verified`].
    pub verified: u64,
    /// See [`JoinStats::result_pairs`].
    pub result_pairs: u64,
    /// See [`JoinStats::triangle_pruned`].
    pub triangle_pruned: u64,
    /// See [`JoinStats::triangle_accepted`].
    pub triangle_accepted: u64,
}

impl KernelCounts {
    /// Books one candidate's [`Verification`] — the one place that maps the
    /// shared kernel's outcome onto `candidates`, `position_pruned`,
    /// `overlap_pruned`, `verified` and `result_pairs`, for the group kernels
    /// and the range-search index alike. Returns the distance if the pair
    /// qualified.
    #[inline]
    pub fn book(&mut self, outcome: Verification) -> Option<u64> {
        self.candidates += 1;
        match outcome {
            Verification::PositionPruned => self.position_pruned += 1,
            Verification::OverlapPruned => self.overlap_pruned += 1,
            Verification::DistanceExceeded => self.verified += 1,
            Verification::Within(_) => {
                self.verified += 1;
                self.result_pairs += 1;
            }
        }
        outcome.distance()
    }

    /// Takes back the result [`book`](KernelCounts::book) counted for a
    /// qualifying pair that another token group owns: it stays a verified
    /// candidate here and is counted as a result by its owner.
    #[inline]
    pub fn disown(&mut self) {
        self.result_pairs -= 1;
    }

    /// Adds the counts to `stats`, one `add` per counter that moved.
    pub fn flush(self, stats: &JoinStats) {
        // Every candidate leaves the funnel through exactly one of its three
        // stages (a pair a triangle bound decides is no candidate).
        debug_assert!(
            self.candidates == self.position_pruned + self.overlap_pruned + self.verified,
            "filter funnel does not add up: {self:?}"
        );
        for (counter, n) in [
            (&stats.candidates, self.candidates),
            (&stats.position_pruned, self.position_pruned),
            (&stats.overlap_pruned, self.overlap_pruned),
            (&stats.verified, self.verified),
            (&stats.result_pairs, self.result_pairs),
            (&stats.triangle_pruned, self.triangle_pruned),
            (&stats.triangle_accepted, self.triangle_accepted),
        ] {
            if n > 0 {
                JoinStats::add(counter, n);
            }
        }
    }
}

/// Immutable snapshot of [`JoinStats`], attached to every
/// [`crate::JoinOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Candidate pairs handed to verification.
    pub candidates: u64,
    /// Candidates discarded by the position filter.
    pub position_pruned: u64,
    /// Candidates discarded by an overlap bound, count or rank weight (see
    /// [`JoinStats::overlap_pruned`]).
    pub overlap_pruned: u64,
    /// Full distance computations performed.
    pub verified: u64,
    /// Pairs that qualified, each counted once (see
    /// [`JoinStats::result_pairs`]).
    pub result_pairs: u64,
    /// Triangle-lower-bound prunes in the expansion phase.
    pub triangle_pruned: u64,
    /// Triangle-upper-bound acceptances in the expansion phase.
    pub triangle_accepted: u64,
    /// Non-singleton pivots (see [`JoinStats::clusters`]).
    pub clusters: u64,
    /// Singleton pivots (see [`JoinStats::singletons`]).
    pub singletons: u64,
    /// Posting lists split by repartitioning.
    pub posting_lists_split: u64,
    /// Sub-partition R-S joins executed.
    pub rs_joins: u64,
    /// Sub-partitions created by skew-aware group splitting.
    pub skew_chunks: u64,
    /// Split-chunk tasks the executor's dynamic claim moved off their
    /// round-robin home slot (work stealing).
    pub skew_steals: u64,
}

impl StatsSnapshot {
    /// Every counter with its name — the run report's JSON key — in
    /// declaration order. The display form, the report and the live series
    /// all read the counters through here, so a new counter is one line.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("candidates", self.candidates),
            ("position_pruned", self.position_pruned),
            ("overlap_pruned", self.overlap_pruned),
            ("verified", self.verified),
            ("result_pairs", self.result_pairs),
            ("triangle_pruned", self.triangle_pruned),
            ("triangle_accepted", self.triangle_accepted),
            ("clusters", self.clusters),
            ("singletons", self.singletons),
            ("posting_lists_split", self.posting_lists_split),
            ("rs_joins", self.rs_joins),
            ("skew_chunks", self.skew_chunks),
            ("skew_steals", self.skew_steals),
        ]
    }

    /// Adds every counter of a finished run to its live series,
    /// `simjoin_<field>_total{driver="…"}`. A driver calls this once per
    /// run, with its stage label as `driver`; it is the only place a join's
    /// counters reach the registry.
    pub(crate) fn publish(&self, registry: &TelemetryRegistry, driver: &str) {
        if !registry.is_enabled() {
            return;
        }
        for (name, value) in self.fields() {
            registry
                .counter_with(&format!("simjoin_{name}_total"), &[("driver", driver)])
                .add(value);
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = JoinStats::default();
        JoinStats::add(&stats.candidates, 1);
        JoinStats::add(&stats.candidates, 1);
        JoinStats::add(&stats.verified, 5);
        let snap = stats.snapshot();
        assert_eq!(snap.candidates, 2);
        assert_eq!(snap.verified, 5);
        assert_eq!(snap.result_pairs, 0);
    }

    #[test]
    fn kernel_counts_book_every_outcome_once_and_flush_adds() {
        let mut counts = KernelCounts::default();
        assert_eq!(counts.book(Verification::Within(4)), Some(4));
        assert_eq!(counts.book(Verification::PositionPruned), None);
        assert_eq!(counts.book(Verification::OverlapPruned), None);
        assert_eq!(counts.book(Verification::OverlapPruned), None);
        assert_eq!(counts.book(Verification::DistanceExceeded), None);
        let stats = JoinStats::default();
        counts.flush(&stats);
        counts.flush(&stats);
        let snap = stats.snapshot();
        assert_eq!(
            (snap.candidates, snap.position_pruned, snap.overlap_pruned),
            (10, 2, 4)
        );
        assert_eq!((snap.verified, snap.result_pairs), (4, 2));
        assert_eq!(
            snap.candidates,
            snap.position_pruned + snap.overlap_pruned + snap.verified
        );
        assert!(snap.to_string().contains("overlap_pruned=4"));
    }

    #[test]
    fn snapshot_is_displayable() {
        let stats = JoinStats::default();
        JoinStats::add(&stats.clusters, 3);
        let text = stats.snapshot().to_string();
        assert!(text.starts_with("candidates=0 position_pruned=0"), "{text}");
        assert!(text.contains(" clusters=3 "), "{text}");
    }

    #[test]
    fn publish_adds_every_field_under_the_driver_label() {
        let stats = JoinStats::default();
        JoinStats::add(&stats.candidates, 7);
        JoinStats::add(&stats.skew_steals, 2);
        let snap = stats.snapshot();
        let registry = TelemetryRegistry::enabled();
        snap.publish(&registry, "vj");
        snap.publish(&registry, "vj");
        let series = |name: &str, driver: &str| {
            registry
                .counter_with(&format!("simjoin_{name}_total"), &[("driver", driver)])
                .get()
        };
        for (name, value) in snap.fields() {
            assert_eq!(series(name, "vj"), 2 * value, "{name}");
        }
        assert_eq!(series("candidates", "cl"), 0, "another driver's series");
        let disabled = TelemetryRegistry::disabled();
        snap.publish(&disabled, "vj");
        assert!(disabled.snapshot().metrics.is_empty());
    }

    #[test]
    fn concurrent_updates_are_counted() {
        // Eight "kernels" count locally and flush concurrently, as the
        // executor's tasks do: nothing is lost between the local totals and
        // the shared counters.
        let stats = JoinStats::default();
        std::thread::scope(|s| {
            for thread in 0..8u64 {
                let stats = &stats;
                s.spawn(move || {
                    for _group in 0..50 {
                        let mut counts = KernelCounts::default();
                        for pair in 0..20 + thread {
                            counts.book(if pair % 4 == 0 {
                                Verification::Within(pair)
                            } else {
                                Verification::OverlapPruned
                            });
                        }
                        counts.flush(stats);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        let per_thread = |f: fn(u64) -> u64| (0..8u64).map(|t| 50 * f(20 + t)).sum::<u64>();
        assert_eq!(snap.candidates, per_thread(|n| n));
        assert_eq!(snap.verified, per_thread(|n| n.div_ceil(4)));
        assert_eq!(snap.result_pairs, snap.verified);
        assert_eq!(snap.overlap_pruned, snap.candidates - snap.verified);
    }
}
