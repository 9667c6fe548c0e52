//! Concurrency stress tests for the executor's task loop:
//! [`minispark::executor::run_tasks`] on a thread pool and
//! [`minispark::executor::run_tasks_scheduled`] under deterministic
//! schedules — the same claim loop, which keeps its claim state behind one
//! lock.
//!
//! That loop must deliver three guarantees regardless of slot count, claim
//! order and task mix: every task runs exactly once, outputs come back in
//! input order, and one timing is recorded per task. These tests hammer
//! those guarantees across slot counts from sequential to heavily
//! oversubscribed, with jitter so that claim interleavings actually vary
//! between runs, and across a matrix of schedules.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use minispark::executor::{run_tasks, run_tasks_scheduled, TaskSpan};
use minispark::{schedule_matrix, Schedule};

/// The thread pool (`None`), then every schedule of a small matrix.
fn modes() -> Vec<Option<Schedule>> {
    let mut modes = vec![None];
    modes.extend(schedule_matrix(5, 0x5EED).into_iter().map(Some));
    modes
}

/// Runs the stage on the pool or under the schedule `mode` names.
fn run_in<I, O>(
    mode: Option<Schedule>,
    slots: usize,
    inputs: Vec<I>,
    f: impl Fn(usize, I) -> O + Sync,
) -> (Vec<O>, Vec<TaskSpan>)
where
    I: Send,
    O: Send,
{
    match mode {
        Some(schedule) => run_tasks_scheduled(schedule, slots, inputs, f),
        None => run_tasks(slots, inputs, f),
    }
}

/// Every `(slots, tasks)` combination must return outputs in input order
/// with one timing per task — including slots > tasks, slots == 1, and the
/// empty input — on the pool and under every schedule.
#[test]
fn outputs_stay_in_input_order_across_slot_counts() {
    for mode in modes() {
        for slots in [1, 2, 3, 4, 7, 8, 16, 64] {
            for num_tasks in [0usize, 1, 2, 7, 64, 257] {
                let inputs: Vec<usize> = (0..num_tasks).collect();
                let (outputs, spans) = run_in(mode, slots, inputs, |idx, input| {
                    assert_eq!(idx, input, "task index must match input position");
                    // Jitter the fast tasks so claim order varies between runs.
                    if input % 13 == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    input.wrapping_mul(2)
                });
                let expected: Vec<usize> = (0..num_tasks).map(|n| n * 2).collect();
                assert_eq!(
                    outputs, expected,
                    "outputs out of order at {mode:?}, slots = {slots}, tasks = {num_tasks}"
                );
                assert_eq!(
                    spans.len(),
                    num_tasks,
                    "one timing per task at {mode:?}, slots = {slots}, tasks = {num_tasks}"
                );
            }
        }
    }
}

/// Under contention every task must execute exactly once — no lost or
/// double-claimed indices — on the pool and under every schedule.
#[test]
fn every_task_claimed_exactly_once_under_contention() {
    for mode in modes() {
        let executions = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..1000).collect();
        let (outputs, _) = run_in(mode, 16, inputs, |_, input| {
            executions.fetch_add(1, Ordering::SeqCst);
            input
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1000, "{mode:?}");
        let unique: HashSet<usize> = outputs.iter().copied().collect();
        assert_eq!(
            unique.len(),
            1000,
            "an input was dropped or duplicated: {mode:?}"
        );
    }
}

/// Mixed task durations (a skewed stage): order and count still hold when
/// the slow tasks land on different workers than the fast ones.
#[test]
fn skewed_task_durations_keep_order() {
    let inputs: Vec<u64> = (0..128).collect();
    let (outputs, spans) = run_tasks(8, inputs, |_, input| {
        if input % 17 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        input
    });
    assert_eq!(outputs, (0..128).collect::<Vec<u64>>());
    assert_eq!(spans.len(), 128);
    let busy: Duration = spans.iter().map(TaskSpan::busy).sum();
    assert!(busy >= Duration::from_millis(2 * (128 / 17)));
}

/// A panic inside any task must propagate to the caller (the stage fails),
/// not vanish inside a worker thread. On the parallel path the panic
/// surfaces through `std::thread::scope`, which re-panics with its own
/// payload ("a scoped thread panicked") rather than the task's message —
/// what matters is that the caller unwinds at all.
#[test]
#[should_panic(expected = "a scoped thread panicked")]
fn panicking_task_propagates_to_the_caller() {
    let inputs: Vec<usize> = (0..64).collect();
    let _ = run_tasks(4, inputs, |_, input| {
        if input == 37 {
            panic!("task 37 exploded");
        }
        input
    });
}

/// One worker (slots = 1) runs on the calling thread, so the task's own
/// panic reaches the caller.
#[test]
#[should_panic(expected = "sequential task exploded")]
fn panicking_task_propagates_on_the_sequential_path() {
    let inputs: Vec<usize> = vec![0, 1, 2];
    let _ = run_tasks(1, inputs, |_, input| {
        if input == 1 {
            panic!("sequential task exploded");
        }
        input
    });
}

/// Under a schedule the loop runs on one worker on the calling thread, so
/// the task's own panic reaches the caller there too.
#[test]
#[should_panic(expected = "scheduled task exploded")]
fn panicking_task_propagates_under_a_schedule() {
    let inputs: Vec<usize> = (0..8).collect();
    let _ = run_tasks_scheduled(Schedule::StragglersFirst, 3, inputs, |_, input| {
        if input == 5 {
            panic!("scheduled task exploded");
        }
        input
    });
}
