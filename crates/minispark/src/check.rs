//! Schedule-exploration harness and dynamic trace auditors.
//!
//! [`crate::sched`] makes the executor's interleavings *controllable*; this
//! module makes them *checkable*:
//!
//! * [`audit_snapshot`] replays one run's stage rows (their task spans) and
//!   its [`TraceSnapshot`] (the shuffle-flush marks) against the executor's
//!   happens-before contract — per-task `queued ≤ started ≤ finished`, no
//!   two tasks overlapping on one slot, and no shuffle read beginning before
//!   the upstream flush mark (the flush-barrier rule);
//! * [`schedule_matrix`] derives a bounded, seed-reproducible set of
//!   [`Schedule`]s (the fixed adversaries plus seeded permutations);
//! * [`check_determinism`] runs a workload under N schedules × M slot
//!   counts — including the real thread pool as run zero — audits every
//!   run's trace, and asserts that the result and the stage-metrics
//!   fingerprint are bit-identical across all of them. A workload whose
//!   output depends on task interleaving (the failure mode that silently
//!   corrupts a distributed similarity join's recall) surfaces as a
//!   [`CheckFailure`].
//!
//! A schedule drives the executor's one claim loop — the loop every pooled
//! stage runs — on one worker, so the runs checked here exercise the
//! production claim and hand-in path. That loop keeps all of a stage's
//! claim state behind one lock, so it has no lock order to check.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::config::ClusterConfig;
use crate::dataset::Cluster;
use crate::metrics::StageMetrics;
use crate::sched::Schedule;
use crate::trace::{TraceCollector, TraceSnapshot};

/// One violation of the executor's happens-before contract found in a
/// run's stage rows and trace. See [`audit_snapshot`] for the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which rule was violated: `task-monotonicity`, `slot-exclusivity` or
    /// `flush-barrier`.
    pub rule: &'static str,
    /// Human-readable description naming the offending events.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Audits one run against the executor's happens-before contract: the task
/// spans of its `stages` (the cluster's [`crate::MetricsReport::stages`])
/// and the `shuffle-flush/*` marks of its `snapshot`. Returns every
/// violation found (empty = clean). Instants are reported as ns since the
/// snapshot's epoch.
///
/// Rules:
///
/// 1. **task-monotonicity** — every task satisfies
///    `queued ≤ started ≤ finished`;
/// 2. **slot-exclusivity** — a worker slot runs one task at a time: sorted
///    by start, consecutive tasks on one slot must not overlap;
/// 3. **flush-barrier** — a `shuffle-flush/<stage>` mark separates the
///    stage's map wave from its reduce wave, so no task of that stage may
///    *strictly contain* the mark instant (a reduce task running across the
///    flush would be reading a shuffle before all upstream buckets were
///    flushed).
///
/// Rows and marks must come from a single run (one cluster); several
/// clusters sharing a collector legitimately interleave on it and would
/// trip the slot-exclusivity rule.
pub fn audit_snapshot(snapshot: &TraceSnapshot, stages: &[StageMetrics]) -> Vec<AuditViolation> {
    let ns = |at: Instant| snapshot.offset_ns(at);
    let mut violations = Vec::new();
    let tasks = || {
        stages
            .iter()
            .flat_map(|stage| stage.spans.iter().map(move |t| (stage.name.as_str(), t)))
    };

    // Rule 1: per-task instant monotonicity. The same pass groups the tasks
    // by slot for rule 2.
    let mut by_slot: BTreeMap<usize, Vec<(Instant, Instant, &str, usize)>> = BTreeMap::new();
    for (stage, t) in tasks() {
        by_slot
            .entry(t.slot)
            .or_default()
            .push((t.started, t.finished, stage, t.task));
        if !(t.queued <= t.started && t.started <= t.finished) {
            violations.push(AuditViolation {
                rule: "task-monotonicity",
                detail: format!(
                    "stage '{stage}' task {}: queued={} started={} finished={}",
                    t.task,
                    ns(t.queued),
                    ns(t.started),
                    ns(t.finished)
                ),
            });
        }
    }

    // Rule 2: slot exclusivity. Per slot, sorted by start, consecutive
    // occupancies must not overlap.
    for (slot, mut occupancies) in by_slot {
        occupancies.sort_unstable_by_key(|&(started, finished, ..)| (started, finished));
        for pair in occupancies.windows(2) {
            let (_, prev_end, prev_stage, prev_task) = pair[0];
            let (next_start, _, next_stage, next_task) = pair[1];
            if next_start < prev_end {
                violations.push(AuditViolation {
                    rule: "slot-exclusivity",
                    detail: format!(
                        "slot {slot}: '{next_stage}' task {next_task} started at {} \
                         while '{prev_stage}' task {prev_task} was still running (until {})",
                        ns(next_start),
                        ns(prev_end)
                    ),
                });
            }
        }
    }

    // Rule 3: flush barriers. A task of stage S strictly containing the
    // `shuffle-flush/S` instant would span the map/reduce barrier.
    for mark in snapshot.marks() {
        let Some(stage) = mark.name.strip_prefix("shuffle-flush/") else {
            continue;
        };
        let at = snapshot.epoch + Duration::from_nanos(mark.at_ns);
        for (_, t) in tasks().filter(|&(name, _)| name == stage) {
            if t.started < at && at < t.finished {
                violations.push(AuditViolation {
                    rule: "flush-barrier",
                    detail: format!(
                        "stage '{stage}' task {} (slot {}) spans the shuffle flush at {} \
                         (started={} finished={})",
                        t.task,
                        t.slot,
                        mark.at_ns,
                        ns(t.started),
                        ns(t.finished)
                    ),
                });
            }
        }
    }

    violations
}

/// A bounded, reproducible schedule set for exploration: the three fixed
/// adversaries (natural, reversed, stragglers-first) followed by
/// `n − 3` seeded permutations derived from `seed`. Asking for fewer than
/// three returns a prefix of the fixed set.
pub fn schedule_matrix(n: usize, seed: u64) -> Vec<Schedule> {
    let mut schedules = vec![
        Schedule::Natural,
        Schedule::Reversed,
        Schedule::StragglersFirst,
    ];
    schedules.truncate(n);
    for i in 0..n.saturating_sub(schedules.len()) as u64 {
        // Spread the user seed so adjacent i never collide with small seeds.
        schedules.push(Schedule::Seeded(
            seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ));
    }
    schedules
}

/// Why a [`check_determinism`] exploration failed. Every variant names the
/// run (slot count + schedule, `None` = the default thread pool) that
/// exposed the problem.
#[derive(Debug, Clone)]
pub enum CheckFailure {
    /// A run's stage rows and trace violated the executor's happens-before
    /// contract.
    Audit {
        /// Task-slot count of the failing run.
        slots: usize,
        /// Schedule of the failing run (`None` = thread pool).
        schedule: Option<Schedule>,
        /// The violations [`audit_snapshot`] found.
        violations: Vec<AuditViolation>,
    },
    /// A run's result differed from the reference run's result.
    Nondeterminism {
        /// Task-slot count of the failing run.
        slots: usize,
        /// Schedule of the failing run (`None` = thread pool).
        schedule: Option<Schedule>,
        /// Truncated `Debug` of the reference result.
        reference: String,
        /// Truncated `Debug` of the divergent result.
        divergent: String,
    },
    /// A run's stage-metrics fingerprint (stage names, task counts, record
    /// and shuffle counts) differed from the reference run's.
    MetricsDrift {
        /// Task-slot count of the failing run.
        slots: usize,
        /// Schedule of the failing run (`None` = thread pool).
        schedule: Option<Schedule>,
        /// Description of the first fingerprint difference.
        detail: String,
    },
}

fn describe_run(slots: usize, schedule: Option<Schedule>) -> String {
    match schedule {
        Some(s) => format!("{slots} slots, schedule {}", s.describe()),
        None => format!("{slots} slots, thread pool"),
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Audit {
                slots,
                schedule,
                violations,
            } => {
                writeln!(
                    f,
                    "trace audit failed under {} ({} violations):",
                    describe_run(*slots, *schedule),
                    violations.len()
                )?;
                for v in violations {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
            CheckFailure::Nondeterminism {
                slots,
                schedule,
                reference,
                divergent,
            } => write!(
                f,
                "schedule-dependent result under {}:\n  reference: {}\n  divergent: {}",
                describe_run(*slots, *schedule),
                reference,
                divergent
            ),
            CheckFailure::MetricsDrift {
                slots,
                schedule,
                detail,
            } => write!(
                f,
                "stage-metrics fingerprint drifted under {}: {}",
                describe_run(*slots, *schedule),
                detail
            ),
        }
    }
}

impl std::error::Error for CheckFailure {}

/// Summary of a successful [`check_determinism`] exploration.
#[derive(Debug)]
pub struct ExplorationOutcome<R> {
    /// Number of runs executed (thread pool + schedules, per slot count).
    pub runs: usize,
    /// The agreed-upon result (from the reference run).
    pub reference: R,
}

/// Truncated `Debug` rendering for failure reports.
fn brief(value: &impl fmt::Debug) -> String {
    let s = format!("{value:?}");
    if s.len() > 300 {
        let cut = s
            .char_indices()
            .take_while(|&(i, _)| i < 300)
            .last()
            .map_or(0, |(i, c)| i + c.len_utf8());
        format!("{}… ({} chars)", &s[..cut], s.len())
    } else {
        s
    }
}

/// One stage's worth of [`metrics_fingerprint`]: stage name, task count,
/// input/output/shuffle record counts and spilled runs.
type StageFingerprint = (String, usize, usize, usize, usize, usize);

/// Per-stage fingerprint that must be identical across schedules and slot
/// counts: everything in the metrics that describes *what* was computed
/// rather than *how fast* (names, task/record/shuffle/spill counts — not
/// wall or busy times).
fn metrics_fingerprint(cluster: &Cluster) -> Vec<StageFingerprint> {
    cluster
        .metrics()
        .stages
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.num_tasks,
                s.input_records,
                s.output_records,
                s.shuffle_records,
                s.spilled_runs,
            )
        })
        .collect()
}

/// Runs `run` once per (slot count × {thread pool + schedule}) combination
/// and asserts that every run agrees: the trace audits clean
/// ([`audit_snapshot`]), the returned result equals the reference run's
/// result (`PartialEq`), and the stage-metrics fingerprint is stable.
///
/// `base` supplies everything but parallelism (partitions, spill budget,
/// …); each exploration run overrides it to a single node with
/// `slots` cores. The first combination (first slot count, thread pool) is
/// the reference. The closure receives a freshly booted, trace-enabled
/// [`Cluster`] per run and must build its whole pipeline on it; returning a
/// canonical (sorted) result is the caller's job — the checker compares
/// with `==`.
///
/// # Errors
///
/// The first disagreement or audit violation aborts the exploration with a
/// [`CheckFailure`] naming the run that exposed it.
pub fn check_determinism<R, F>(
    base: &ClusterConfig,
    slot_counts: &[usize],
    schedules: &[Schedule],
    mut run: F,
) -> Result<ExplorationOutcome<R>, CheckFailure>
where
    R: PartialEq + fmt::Debug,
    F: FnMut(&Cluster) -> R,
{
    let mut reference: Option<(R, Vec<StageFingerprint>)> = None;
    let mut runs = 0usize;
    for &slots in slot_counts {
        // Thread pool first (the production path), then each schedule.
        let modes = std::iter::once(None).chain(schedules.iter().copied().map(Some));
        for schedule in modes {
            let mut config = base.clone();
            config.nodes = 1;
            config.executors_per_node = 1;
            config.cores_per_executor = slots.max(1);
            config.schedule = schedule;
            let cluster = Cluster::with_trace(config, TraceCollector::enabled());
            let result = run(&cluster);
            runs += 1;

            let violations = audit_snapshot(&cluster.trace().snapshot(), &cluster.metrics().stages);
            if !violations.is_empty() {
                return Err(CheckFailure::Audit {
                    slots,
                    schedule,
                    violations,
                });
            }

            let fingerprint = metrics_fingerprint(&cluster);
            match &reference {
                None => reference = Some((result, fingerprint)),
                Some((expected, expected_fp)) => {
                    if result != *expected {
                        return Err(CheckFailure::Nondeterminism {
                            slots,
                            schedule,
                            reference: brief(expected),
                            divergent: brief(&result),
                        });
                    }
                    if fingerprint != *expected_fp {
                        let detail = fingerprint
                            .iter()
                            .zip(expected_fp)
                            .find(|(got, want)| got != want)
                            .map_or_else(
                                || {
                                    format!(
                                        "stage count changed: {} vs {}",
                                        fingerprint.len(),
                                        expected_fp.len()
                                    )
                                },
                                |(got, want)| format!("stage {got:?}, expected {want:?}"),
                            );
                        return Err(CheckFailure::MetricsDrift {
                            slots,
                            schedule,
                            detail,
                        });
                    }
                }
            }
        }
    }
    let (reference, _) = reference.expect("check_determinism needs at least one slot count");
    Ok(ExplorationOutcome { runs, reference })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MarkEvent, TraceEvent};

    fn row(base: Instant, name: &str, tasks: &[(usize, usize, (u64, u64, u64))]) -> StageMetrics {
        StageMetrics::synthetic(name, base, tasks)
    }

    fn trace(epoch: Instant, events: Vec<TraceEvent>) -> TraceSnapshot {
        TraceSnapshot { epoch, events }
    }

    #[test]
    fn audit_accepts_a_real_run() {
        // A real run's shape on synthetic rows: a narrow stage on two slots,
        // then a wide stage whose map wave ends before the flush mark and
        // whose reduce wave starts after it, plus a driver stage on slot 0.
        let base = Instant::now();
        let stages = [
            row(base, "map", &[(0, 0, (0, 0, 10)), (1, 1, (0, 1, 12))]),
            row(
                base,
                "group",
                &[
                    (0, 0, (20, 20, 30)),
                    (1, 1, (20, 21, 31)),
                    (0, 1, (35, 40, 50)),
                    (1, 0, (35, 41, 55)),
                ],
            ),
            row(base, "collect", &[(0, 0, (60, 60, 70))]),
        ];
        let marks = vec![TraceEvent::Mark(MarkEvent {
            name: "shuffle-flush/group".to_string(),
            at_ns: 33,
            value: 8,
        })];
        let violations = audit_snapshot(&trace(base, marks), &stages);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn audit_flags_non_monotone_task_instants() {
        let base = Instant::now();
        let stages = [row(base, "s", &[(0, 0, (50, 40, 60))])];
        let violations = audit_snapshot(&trace(base, Vec::new()), &stages);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "task-monotonicity");
    }

    #[test]
    fn audit_flags_overlapping_tasks_on_one_slot() {
        let base = Instant::now();
        let stages = [row(
            base,
            "s",
            &[
                (0, 2, (0, 10, 30)),
                (1, 2, (0, 20, 40)), // starts while task 0 runs
                (2, 3, (0, 20, 40)), // different slot: fine
            ],
        )];
        let violations = audit_snapshot(&trace(base, Vec::new()), &stages);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "slot-exclusivity");
        assert!(violations[0].detail.contains("slot 2"));
    }

    #[test]
    fn audit_flags_a_task_spanning_the_flush_barrier() {
        let base = Instant::now();
        let stages = [
            row(
                base,
                "wide",
                &[
                    (0, 0, (0, 10, 20)),
                    (1, 1, (0, 40, 60)), // strictly contains the mark
                ],
            ),
            row(base, "other", &[(0, 2, (0, 40, 60))]), // different stage: fine
        ];
        let marks = vec![TraceEvent::Mark(MarkEvent {
            name: "shuffle-flush/wide".to_string(),
            at_ns: 50,
            value: 2,
        })];
        let violations = audit_snapshot(&trace(base, marks), &stages);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "flush-barrier");
    }

    #[test]
    fn schedule_matrix_is_reproducible_and_sized() {
        assert_eq!(schedule_matrix(2, 1).len(), 2);
        let eight = schedule_matrix(8, 99);
        assert_eq!(eight.len(), 8);
        assert_eq!(eight[0], Schedule::Natural);
        assert_eq!(eight[2], Schedule::StragglersFirst);
        assert!(matches!(eight[3], Schedule::Seeded(_)));
        assert_eq!(eight, schedule_matrix(8, 99), "same seed, same matrix");
        assert_ne!(eight[3..], schedule_matrix(8, 100)[3..]);
    }

    #[test]
    fn determinism_check_passes_for_a_deterministic_pipeline() {
        let outcome = check_determinism(
            &ClusterConfig::default(),
            &[1, 3],
            &schedule_matrix(4, 7),
            |cluster| {
                let pairs: Vec<(u32, u64)> = (0..300u64).map(|n| ((n % 11) as u32, n)).collect();
                let mut sums = cluster
                    .parallelize(pairs, 6)
                    .reduce_by_key("sum", 4, |a, b| a + b)
                    .collect();
                sums.sort_unstable();
                sums
            },
        )
        .expect("a sorted reduce_by_key result is schedule-independent");
        // 2 slot counts × (thread pool + 4 schedules).
        assert_eq!(outcome.runs, 10);
        assert_eq!(outcome.reference.len(), 11);
    }

    #[test]
    fn determinism_check_catches_slot_dependent_results() {
        let failure = check_determinism(
            &ClusterConfig::default(),
            &[1, 2],
            &[Schedule::Natural],
            |cluster| cluster.config().task_slots(),
        )
        .expect_err("a slot-dependent result must fail");
        match failure {
            CheckFailure::Nondeterminism {
                slots, reference, ..
            } => {
                assert_eq!(slots, 2);
                assert_eq!(reference, "1");
            }
            other => panic!("expected Nondeterminism, got {other}"),
        }
    }

    #[test]
    fn determinism_check_catches_metrics_drift() {
        let mut call = 0usize;
        let failure = check_determinism(
            &ClusterConfig::default(),
            &[2],
            &[Schedule::Natural],
            |cluster| {
                call += 1;
                let ds = cluster.parallelize((0..10u32).collect::<Vec<_>>(), 2);
                // Same result, but the second run sneaks in an extra stage —
                // the fingerprint must notice.
                let ds = if call > 1 {
                    ds.map("extra", |&n| n)
                } else {
                    ds
                };
                let mut out = ds.collect();
                out.sort_unstable();
                out
            },
        )
        .expect_err("a run with extra stages must fail the fingerprint");
        assert!(
            matches!(failure, CheckFailure::MetricsDrift { .. }),
            "{failure}"
        );
    }

    #[test]
    fn failure_display_names_the_run() {
        let f = CheckFailure::Nondeterminism {
            slots: 4,
            schedule: Some(Schedule::Seeded(5)),
            reference: "a".into(),
            divergent: "b".into(),
        };
        let text = f.to_string();
        assert!(text.contains("4 slots"), "{text}");
        assert!(text.contains("seeded(5)"), "{text}");
    }
}
