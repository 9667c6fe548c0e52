//! Integration tests for the concurrency-checking layer: the deterministic
//! scheduler (`minispark::sched`), the trace auditors and the determinism
//! checker (`minispark::check`) — exercised end-to-end through real
//! `Dataset` pipelines rather than fabricated snapshots.
//!
//! The `#[ignore]`d test at the bottom is the suite's **negative control**:
//! it arms the seeded schedule-dependence bug in `run_tasks_scheduled`
//! (`MINISPARK_SCHED_INJECT=claim-order` makes task outputs land at their
//! *claim position* instead of their task index) and asserts that the
//! determinism checker catches it. Run with `cargo test -p minispark
//! --test schedule_check -- --ignored`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use minispark::trace::TraceCollector;
use minispark::{
    audit_snapshot, check_determinism, schedule_matrix, Cluster, ClusterConfig, Schedule,
};

fn traced_cluster(slots: usize, schedule: Option<Schedule>) -> Cluster {
    let mut config = ClusterConfig::local(slots).with_default_partitions(4);
    if let Some(schedule) = schedule {
        config = config.with_schedule(schedule);
    }
    Cluster::with_trace(config, TraceCollector::enabled())
}

/// A shuffle-heavy pipeline whose answer is easy to verify: word counts.
fn word_count(cluster: &Cluster) -> Vec<(String, usize)> {
    let words: Vec<String> = "the quick brown fox jumps over the lazy dog the fox"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let mut counts = cluster
        .parallelize(words, 4)
        .map("pair", |w: &String| (w.clone(), 1usize))
        .reduce_by_key("count", 4, |a, b| a + b)
        .collect();
    counts.sort();
    counts
}

#[test]
fn real_runs_pass_the_happens_before_audit_under_every_schedule() {
    let mut modes = vec![None];
    modes.extend(schedule_matrix(6, 7).into_iter().map(Some));
    for schedule in modes {
        let cluster = traced_cluster(3, schedule);
        let counts = word_count(&cluster);
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), 11);
        let violations = audit_snapshot(&cluster.trace().snapshot(), &cluster.metrics().stages);
        assert!(
            violations.is_empty(),
            "audit violations under {schedule:?}: {violations:?}"
        );
    }
}

#[test]
fn scheduled_runs_reproduce_the_thread_pool_result() {
    let reference = word_count(&traced_cluster(4, None));
    for schedule in schedule_matrix(8, 42) {
        let got = word_count(&traced_cluster(4, Some(schedule)));
        assert_eq!(got, reference, "divergence under {schedule:?}");
    }
}

#[test]
fn determinism_checker_passes_a_clean_pipeline_end_to_end() {
    let base = ClusterConfig::local(2).with_default_partitions(4);
    let schedules = schedule_matrix(4, 9);
    let outcome = check_determinism(&base, &[1, 2, 4], &schedules, word_count)
        .expect("word count is schedule-independent");
    assert_eq!(outcome.runs, 3 * (schedules.len() + 1));
    assert_eq!(outcome.reference.len(), 8, "8 distinct words");
}

#[test]
fn yield_hook_fires_at_shuffle_flush_boundaries() {
    let fired = Arc::new(AtomicUsize::new(0));
    let observed = Arc::clone(&fired);
    minispark::sched::install_yield_hook(Arc::new(move |site| {
        if site == "shuffle-flush" {
            // relaxed(counter): test-only counter read after the run.
            observed.fetch_add(1, Ordering::Relaxed);
        }
    }));
    let counts = word_count(&traced_cluster(2, Some(Schedule::Natural)));
    minispark::sched::clear_yield_hook();
    assert_eq!(counts.len(), 8);
    assert!(
        fired.load(Ordering::Relaxed) >= 1,
        "reduce_by_key must cross at least one shuffle-flush yield point"
    );
}

#[test]
fn flush_marks_are_recorded_for_wide_stages() {
    let cluster = traced_cluster(2, Some(Schedule::Reversed));
    let _ = word_count(&cluster);
    let snapshot = cluster.trace().snapshot();
    assert!(
        snapshot
            .marks()
            .any(|m| m.name.starts_with("shuffle-flush/")),
        "wide operations should emit a shuffle-flush mark for the auditor"
    );
}

/// The negative control demanded by the issue's acceptance criteria: with
/// the seeded bug armed, the determinism checker must fail.
///
/// `#[ignore]`d because the arming environment variable is process-global —
/// run this test alone (`-- --ignored`), not interleaved with the clean
/// suite above.
#[test]
#[ignore = "arms MINISPARK_SCHED_INJECT, which is process-global"]
fn determinism_checker_catches_the_injected_claim_order_bug() {
    std::env::set_var("MINISPARK_SCHED_INJECT", "claim-order");
    let base = ClusterConfig::local(2).with_default_partitions(4);
    // `word_count` sorts before comparing, and reduce_by_key is
    // order-insensitive — so probe partition *placement* instead, which the
    // claim-order bug scrambles: collect() concatenates partitions in order.
    let result = check_determinism(&base, &[3], &schedule_matrix(6, 17), |cluster| {
        cluster
            .parallelize((0..12u64).collect::<Vec<u64>>(), 6)
            .map("tag", |n| n * 10)
            .collect()
    });
    std::env::remove_var("MINISPARK_SCHED_INJECT");
    let failure = result
        .expect_err("the claim-order injection reorders task outputs — the checker must notice");
    let text = failure.to_string();
    assert!(
        text.contains("slots"),
        "the failure should name the run that diverged: {text}"
    );
}
