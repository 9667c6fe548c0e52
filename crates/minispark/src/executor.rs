//! The task executor: runs one stage's tasks on a bounded pool of worker
//! threads, emulating a cluster with a fixed number of executor cores.
//!
//! Tasks are claimed dynamically — a worker that finishes a task claims the
//! next unclaimed one — which matches Spark's behaviour of assigning tasks
//! to whichever core frees up: important for skewed workloads where one
//! oversized partition dominates (the exact effect the paper's CL-P
//! repartitioning attacks). Every stage, pooled or under a deterministic
//! [`Schedule`], runs through the same claim loop; a schedule only fixes
//! the claim order and the slot labels.

#![warn(clippy::indexing_slicing)]

use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::config::ClusterConfig;
use crate::sched::{self, Schedule};
use crate::telemetry::ExecutorProbe;

/// Scheduling trace of one executed task: which slot ran it and the
/// queued → started → finished instants. `queued` is the stage submission
/// time (all tasks of a stage become runnable together), so
/// `started − queued` is the task's queue wait and `finished − started` its
/// busy time. A stage's spans are stored once, in its
/// [`crate::metrics::StageMetrics`] row; every duration the engine reports
/// is read off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Task index within the stage.
    pub task: usize,
    /// Worker slot (0-based) the task executed on.
    pub slot: usize,
    /// When the task became runnable.
    pub queued: Instant,
    /// When a worker picked it up.
    pub started: Instant,
    /// When it finished.
    pub finished: Instant,
}

impl TaskSpan {
    /// How long the task ran: `finished − started`.
    pub fn busy(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }

    /// How long the task waited for a free slot: `started − queued`.
    pub fn queue_wait(&self) -> Duration {
        self.started.saturating_duration_since(self.queued)
    }
}

/// Runs `f(task_index, input)` for every input, using at most `slots`
/// concurrent worker threads. Returns the outputs in input order along with
/// one span per task, in task order.
///
/// Tasks are claimed in input order by `min(slots, tasks)` workers; a
/// span's slot is the index of the worker that ran it. One worker runs on
/// the calling thread.
///
/// Panics in a task propagate to the caller (the stage fails), mirroring a
/// failed Spark job.
pub fn run_tasks<I, O, F>(slots: usize, inputs: Vec<I>, f: F) -> (Vec<O>, Vec<TaskSpan>)
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let num_tasks = inputs.len();
    let workers = slots.max(1).min(num_tasks);
    let claims = inputs.into_iter().enumerate();
    run_claims(workers, claims, num_tasks, |worker, _| worker, false, f)
}

/// Runs `f(task_index, input)` for every input under a deterministic
/// [`Schedule`]: one worker on the calling thread claims the tasks in the
/// schedule's claim order, and the `position`-th claim is labelled with
/// slot [`Schedule::slot_of`]. Returns outputs in **input order** (like
/// [`run_tasks`]) plus spans that reflect the scheduled order.
///
/// This is the executor's concurrency-checking mode — the same claim loop
/// as [`run_tasks`], with a replayable interleaving. Installed engine-wide
/// via [`ClusterConfig::with_schedule`]; driven by [`crate::check`].
pub fn run_tasks_scheduled<I, O, F>(
    schedule: Schedule,
    slots: usize,
    inputs: Vec<I>,
    f: F,
) -> (Vec<O>, Vec<TaskSpan>)
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let num_tasks = inputs.len();
    let order = schedule.claim_order(num_tasks);
    debug_assert_eq!(order.len(), num_tasks, "claim order must be a permutation");
    let mut pending: Vec<Option<I>> = inputs.into_iter().map(Some).collect();
    let claims = order.into_iter().map(move |idx| {
        let input = pending.get_mut(idx).and_then(Option::take);
        (idx, input.expect("task input claimed twice"))
    });
    // Fault injection for the checker's negative test: place outputs by
    // *claim position* instead of task index — the classic "forgot to map
    // the dynamic claim order back to submission order" bug. Only looked at
    // in scheduled mode; the checker proves it makes results
    // schedule-dependent.
    let inject_claim_order =
        std::env::var_os("MINISPARK_SCHED_INJECT").is_some_and(|v| v == "claim-order");
    let slot_of = |_, position| schedule.slot_of(position, num_tasks, slots);
    run_claims(1, claims, num_tasks, slot_of, inject_claim_order, f)
}

/// A stage's claim state: everything its workers share, behind one lock.
struct ClaimState<C, O> {
    /// The tasks left to claim, in claim order, with their inputs and claim
    /// positions.
    claims: std::iter::Enumerate<C>,
    /// Task outputs by destination.
    outputs: Vec<Option<O>>,
    /// Task spans by task index.
    spans: Vec<Option<TaskSpan>>,
}

/// The executor's one task loop. `workers` workers claim `(task index,
/// input)` pairs from `claims` until it runs dry; the `position`-th claim
/// runs on `worker` under slot label `slot_of(worker, position)`, and its
/// output lands at its task index, or at its claim position when
/// `outputs_by_position` is set (the fault injection of
/// [`run_tasks_scheduled`]).
///
/// All claim state sits behind one `Mutex`, which a worker takes once per
/// task — to hand in its last result and claim the next task — and never
/// holds while a task runs. With one lock there is no lock order to get
/// wrong. One worker runs on the calling thread, so a task's panic reaches
/// the caller with its own payload; on a pool it arrives through
/// `thread::scope` once the other workers have drained the claims.
fn run_claims<C, I, O, F>(
    workers: usize,
    claims: C,
    num_tasks: usize,
    slot_of: impl Fn(usize, usize) -> usize + Sync,
    outputs_by_position: bool,
    f: F,
) -> (Vec<O>, Vec<TaskSpan>)
where
    C: Iterator<Item = (usize, I)> + Send,
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    if num_tasks == 0 {
        return (Vec::new(), Vec::new());
    }
    sched::arm_from_env();
    // Stage submission time: every task of the stage is runnable from here,
    // so `started − queued` measures the wait for a free slot.
    let queued = Instant::now();
    let state = Mutex::new(ClaimState {
        claims: claims.enumerate(),
        outputs: (0..num_tasks).map(|_| None).collect(),
        spans: vec![None; num_tasks],
    });
    let work = |worker: usize| {
        let mut finished: Option<(usize, O, TaskSpan)> = None;
        loop {
            sched::yield_point("executor/claim");
            let (position, (idx, input)) = {
                let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some((dest, output, span)) = finished.take() {
                    let output_slot = state.outputs.get_mut(dest);
                    *output_slot.expect("output destination out of range") = Some(output);
                    let span_slot = state.spans.get_mut(span.task);
                    *span_slot.expect("task index out of range") = Some(span);
                }
                let Some(claim) = state.claims.next() else {
                    break;
                };
                claim
            };
            let started = Instant::now();
            let output = f(idx, input);
            let span = TaskSpan {
                task: idx,
                slot: slot_of(worker, position),
                queued,
                started,
                finished: Instant::now(),
            };
            let dest = if outputs_by_position { position } else { idx };
            finished = Some((dest, output, span));
        }
    };
    if workers <= 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let work = &work;
                scope.spawn(move || work(worker));
            }
        });
    }
    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let outputs = state.outputs.into_iter();
    let spans = state.spans.into_iter();
    (
        outputs
            .map(|o| o.expect("task produced no output"))
            .collect(),
        spans.map(|s| s.expect("task produced no span")).collect(),
    )
}

/// Number of **stolen** tasks among a stage's `(task index, slot)` claims,
/// in recording order: tasks executed on a different slot than the static
/// round-robin assignment `task % workers` would use, where
/// `workers = min(slots, tasks)` is the number of workers the stage could
/// occupy.
///
/// The executor claims tasks dynamically, so a fast slot
/// that runs dry backfills itself with tasks a static scheduler would have
/// queued behind a straggler on another slot — that deviation is exactly
/// what this counts. Zero means the stage degenerated to the static plan
/// (always true for one slot or one task); a high count on a split-join
/// stage means the skew sub-partitions really did migrate to idle slots.
///
/// Handles concatenated task waves (a wide stage records its map and reduce
/// waves back to back, each restarting task indices at 0): waves are
/// recovered at the task-index resets and counted separately, so one wave's
/// indices never judge another wave's slots. The stage row
/// ([`crate::metrics::StageMetrics::stolen_tasks`]) and the executor
/// analytics both count through here.
pub fn steal_count(pairs: &[(usize, usize)], slots: usize) -> usize {
    let mut total = 0;
    let mut wave_start = 0;
    for idx in 1..=pairs.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "short-circuit guards idx < pairs.len(); idx ≥ 1 from the range"
        )]
        let resets = idx == pairs.len() || pairs[idx].0 <= pairs[idx - 1].0;
        if resets {
            #[expect(
                clippy::indexing_slicing,
                reason = "wave_start ≤ idx ≤ pairs.len() — the wave is a valid subslice"
            )]
            let wave = &pairs[wave_start..idx];
            let workers = NonZeroUsize::new(slots.min(wave.len())).filter(|w| w.get() > 1);
            if let Some(workers) = workers {
                total += wave
                    .iter()
                    .filter(|(task, slot)| *slot != *task % workers)
                    .count();
            }
            wave_start = idx;
        }
    }
    total
}

/// Stage entry point used by the engine's operators: dispatches to
/// [`run_tasks_scheduled`] when the cluster config installs a [`Schedule`],
/// and to the [`run_tasks`] thread pool otherwise — the same claim loop
/// either way.
///
/// The [`ExecutorProbe`] sees every task: queue depth rises by the stage's
/// task count on submission and falls per claim, claim/complete counters
/// tick around the task body, and busy durations land in the probe's
/// histogram after the stage joins. With a disabled probe each touch is a
/// single `None` branch.
pub(crate) fn run_stage_tasks<I, O, F>(
    config: &ClusterConfig,
    probe: &ExecutorProbe,
    inputs: Vec<I>,
    f: F,
) -> (Vec<O>, Vec<TaskSpan>)
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let slots = config.task_slots();
    probe.queue_depth.add_usize(inputs.len());
    let wrapped = |idx: usize, input: I| {
        probe.tasks_claimed.inc();
        probe.queue_depth.dec();
        let output = f(idx, input);
        probe.tasks_completed.inc();
        output
    };
    let (outputs, spans) = match config.schedule {
        Some(schedule) => run_tasks_scheduled(schedule, slots, inputs, wrapped),
        None => run_tasks(slots, inputs, wrapped),
    };
    if probe.is_enabled() {
        for span in &spans {
            probe.task_ns.record_duration(span.busy());
        }
    }
    (outputs, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_preserve_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let (out, _) = run_tasks(8, inputs, |idx, input| {
            assert_eq!(idx, input);
            input * 2
        });
        assert_eq!(out, (0..100).map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, spans) = run_tasks::<u32, u32, _>(4, vec![], |_, i| i);
        assert!(out.is_empty());
        assert!(spans.is_empty());
    }

    #[test]
    fn sequential_path_matches_parallel_path() {
        let inputs: Vec<u64> = (0..50).collect();
        let (seq, _) = run_tasks(1, inputs.clone(), |_, n| n * n);
        let (par, _) = run_tasks(16, inputs, |_, n| n * n);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..200).collect();
        let (out, _) = run_tasks(7, inputs, |_, input| {
            counter.fetch_add(1, Ordering::SeqCst);
            input
        });
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 200);
    }

    #[test]
    fn uses_at_most_the_requested_slots() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..64).collect();
        run_tasks(3, inputs, |_, input| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            input
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn spans_carry_slots_and_ordered_instants() {
        let inputs = vec![(); 16];
        let (_, spans) = run_tasks(4, inputs, |_, ()| {
            std::thread::sleep(Duration::from_micros(100));
        });
        assert_eq!(spans.len(), 16);
        for (idx, s) in spans.iter().enumerate() {
            assert_eq!(s.task, idx);
            assert!(s.slot < 4);
            assert!(s.queued <= s.started);
            assert!(s.started <= s.finished);
        }
        // One worker pins everything on slot 0.
        let (_, seq) = run_tasks(1, vec![(); 3], |_, ()| ());
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|s| s.slot == 0));
    }

    #[test]
    fn scheduled_path_matches_thread_pool_outputs() {
        let inputs: Vec<u64> = (0..40).collect();
        let (reference, _) = run_tasks(4, inputs.clone(), |idx, n| (idx as u64) * 100 + n);
        for schedule in [
            Schedule::Natural,
            Schedule::Reversed,
            Schedule::Seeded(11),
            Schedule::StragglersFirst,
        ] {
            let (out, spans) =
                run_tasks_scheduled(schedule, 4, inputs.clone(), |idx, n| (idx as u64) * 100 + n);
            assert_eq!(out, reference, "{schedule:?} must preserve input order");
            assert_eq!(spans.len(), 40);
            for (idx, s) in spans.iter().enumerate() {
                assert_eq!(s.task, idx);
                assert!(s.slot < 4, "{schedule:?} produced slot {}", s.slot);
                assert!(s.queued <= s.started && s.started <= s.finished);
            }
        }
    }

    #[test]
    fn scheduled_path_executes_in_claim_order() {
        let seen = Mutex::new(Vec::new());
        let inputs = vec![(); 6];
        run_tasks_scheduled(Schedule::Reversed, 2, inputs, |idx, ()| {
            seen.lock().unwrap().push(idx);
        });
        assert_eq!(*seen.lock().unwrap(), vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn run_stage_tasks_dispatches_on_config() {
        let probe = ExecutorProbe::disabled();
        let inputs: Vec<u32> = (0..10).collect();
        let pooled = ClusterConfig::local(3);
        let (a, _) = run_stage_tasks(&pooled, &probe, inputs.clone(), |_, n| n + 1);
        let scheduled = ClusterConfig::local(3).with_schedule(Schedule::StragglersFirst);
        let (b, _) = run_stage_tasks(&scheduled, &probe, inputs, |_, n| n + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn run_stage_tasks_feeds_a_live_probe() {
        let registry = crate::telemetry::TelemetryRegistry::enabled();
        let probe = ExecutorProbe::register(&registry);
        let inputs: Vec<u32> = (0..12).collect();
        let (out, _) = run_stage_tasks(&ClusterConfig::local(3), &probe, inputs, |_, n| n);
        assert_eq!(out.len(), 12);
        assert_eq!(probe.tasks_claimed.get(), 12);
        assert_eq!(probe.tasks_completed.get(), 12);
        assert_eq!(probe.queue_depth.get(), 0, "depth returns to zero");
        assert_eq!(probe.task_ns.data().count, 12);
    }

    #[test]
    fn steal_count_is_zero_for_static_assignments() {
        // Perfect round-robin over 2 workers: nothing stolen.
        let claims: Vec<(usize, usize)> = (0..6).map(|t| (t, t % 2)).collect();
        assert_eq!(steal_count(&claims, 2), 0);
        // One worker: everything on slot 0 — never a steal.
        let seq: Vec<(usize, usize)> = (0..5).map(|t| (t, 0)).collect();
        assert_eq!(steal_count(&seq, 1), 0);
        assert_eq!(steal_count(&[], 4), 0);
    }

    #[test]
    fn steal_count_counts_deviations_from_round_robin() {
        // 4 tasks, 2 workers; tasks 1 and 3 ran on slot 0 instead of 1.
        assert_eq!(steal_count(&[(0, 0), (1, 0), (2, 0), (3, 0)], 2), 2);
        // Workers are capped by the task count: 2 tasks on 8 slots means
        // round-robin over 2 workers, so slot 1 running task 1 is home.
        assert_eq!(steal_count(&[(0, 0), (1, 1)], 8), 0);
        assert_eq!(steal_count(&[(0, 1), (1, 0)], 8), 2);
    }

    #[test]
    fn steal_count_splits_waves_at_task_resets() {
        // Two clean round-robin waves of 4 tasks on 2 slots: no steals, and
        // the reset at the second task-0 must not be misread as a deviation.
        let two_waves = [
            (0, 0),
            (1, 1),
            (2, 0),
            (3, 1),
            (0, 0),
            (1, 1),
            (2, 0),
            (3, 1),
        ];
        assert_eq!(steal_count(&two_waves, 2), 0);
        // Second wave fully on slot 0 → tasks 1 and 3 are stolen there.
        let claims = [(0, 0), (1, 1), (0, 0), (1, 0), (2, 0), (3, 0)];
        assert_eq!(steal_count(&claims, 2), 2);
        assert_eq!(steal_count(&[], 4), 0);
    }

    #[test]
    fn stragglers_backfill_produces_steals() {
        // One long task 0 plus many short ones on 2 slots: while slot 0 (or
        // whichever slot claims task 0) grinds, the other slot must claim
        // tasks that round-robin would have parked behind the straggler.
        let mut inputs = vec![50u64];
        inputs.extend(std::iter::repeat_n(1u64, 15));
        let (_, spans) = run_tasks(2, inputs, |_, ms| {
            std::thread::sleep(Duration::from_millis(ms));
        });
        let claims: Vec<(usize, usize)> = spans.iter().map(|s| (s.task, s.slot)).collect();
        assert!(
            steal_count(&claims, 2) > 0,
            "straggler stage showed no dynamic backfill: {claims:?}"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let inputs = vec![(); 8];
        let (_, spans) = run_tasks(4, inputs, |_, ()| {
            std::thread::sleep(Duration::from_millis(2));
        });
        let busy: Vec<Duration> = spans.iter().map(TaskSpan::busy).collect();
        assert_eq!(busy.len(), 8);
        assert!(
            busy.iter().all(|d| *d >= Duration::from_millis(2)),
            "{busy:?}"
        );
    }
}
