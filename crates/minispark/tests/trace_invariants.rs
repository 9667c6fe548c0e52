//! Invariants of the tracing layer against real engine runs: the
//! queued ≤ started ≤ finished ordering of every stage row's task spans,
//! per-task residence bounded by the stage wall time, analytics ranges, the
//! Chrome export, clusters sharing one collector, and the disabled
//! collector being a true no-op.

use minispark::trace::chrome_trace_json;
use minispark::{Cluster, ClusterConfig, ExecutorAnalytics, Json, TraceCollector};

/// Runs a small but representative workload: a narrow map and a wide
/// group-by-key.
fn run_workload(cluster: &Cluster) {
    let ds = cluster.parallelize((0..4_000u32).collect::<Vec<_>>(), 8);
    let mapped = ds.map("square", |&n| (n % 97, u64::from(n) * u64::from(n)));
    let grouped = mapped.group_by_key("group-by-mod", 4);
    assert_eq!(grouped.collect().len(), 97);
}

/// The complete (`"ph": "X"`) events of a Chrome trace document.
fn complete_events(text: &str) -> Vec<Json> {
    let doc = Json::parse(text).expect("the Chrome trace must parse back");
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .cloned()
        .collect()
}

#[test]
fn disabled_collector_is_a_true_noop() {
    let cluster = Cluster::new(ClusterConfig::local(2));
    run_workload(&cluster);
    assert!(!cluster.trace().is_enabled());
    assert!(
        cluster.trace().snapshot().is_empty(),
        "a disabled collector must record nothing"
    );
    // The stage rows keep their task spans regardless.
    assert!(cluster.metrics().stages.iter().all(|s| !s.spans.is_empty()));
}

#[test]
fn task_spans_obey_ordering_and_stage_wall_bounds() {
    let cluster = Cluster::new(ClusterConfig::local(2));
    run_workload(&cluster);
    let metrics = cluster.metrics();
    let slots = cluster.config().task_slots();
    assert!(metrics.stages.iter().map(|s| s.spans.len()).sum::<usize>() > 0);

    for stage in &metrics.stages {
        for task in &stage.spans {
            assert!(
                task.queued <= task.started && task.started <= task.finished,
                "task ordering violated in stage {}: {task:?}",
                stage.name
            );
            assert!(task.slot < slots, "slot {} out of range", task.slot);
            // queue_wait + busy is the task's residence (finished − queued),
            // which can never exceed the stage's wall time: the queued stamp
            // is taken after the stage starts, the finished stamp before its
            // row is recorded.
            let residence = task.queue_wait() + task.busy();
            assert!(
                residence <= stage.wall,
                "task residence {residence:?} exceeds wall {:?} of stage {}",
                stage.wall,
                stage.name
            );
        }
        assert_eq!(stage.task_time(), stage.task_durations().sum());
    }
}

#[test]
fn analytics_ranges_are_physical() {
    let cluster = Cluster::new(ClusterConfig::local(2));
    run_workload(&cluster);
    let metrics = cluster.metrics();
    let analytics = ExecutorAnalytics::from_metrics(&metrics);
    assert_eq!(analytics.slots, cluster.config().task_slots());
    assert_eq!(analytics.stages.len(), metrics.stages.len());
    assert!((0.0..=1.0).contains(&analytics.overall_occupancy()));
    assert!((0.0..=1.0).contains(&analytics.overall_idle_fraction()));
    assert!(analytics.critical_path() <= analytics.total_busy());
    for stage in &analytics.stages {
        assert!((0.0..=1.0).contains(&stage.occupancy), "{}", stage.stage);
        assert!(
            (0.0..=1.0).contains(&stage.idle_fraction),
            "{}",
            stage.stage
        );
        assert!(
            (stage.occupancy + stage.idle_fraction - 1.0).abs() < 1e-9,
            "occupancy and idle fraction must sum to 1"
        );
        assert!(stage.queue_wait_p50 <= stage.queue_wait_p95);
        assert!(stage.queue_wait_p95 <= stage.queue_wait_max);
        assert!(stage.longest_task <= stage.busy);
        let slot_sum: std::time::Duration = stage.slot_busy.iter().sum();
        assert_eq!(slot_sum, stage.busy, "slot timeline must account busy");
    }
    assert_eq!(
        analytics
            .stages
            .iter()
            .map(|s| s.stolen_tasks)
            .sum::<usize>(),
        metrics.total_stolen_tasks()
    );
}

#[test]
fn chrome_export_parses_and_covers_all_tasks() {
    let cluster = Cluster::with_trace(ClusterConfig::local(2), TraceCollector::enabled());
    {
        let _run = cluster.trace().span("demo/run");
        run_workload(&cluster);
    }
    let snapshot = cluster.trace().snapshot();
    let metrics = cluster.metrics();
    let text = chrome_trace_json(&snapshot, &metrics.stages);
    let complete = complete_events(&text);
    // One complete event per stage-row task plus one per phase.
    let tasks: usize = metrics.stages.iter().map(|s| s.spans.len()).sum();
    assert_eq!(complete.len(), tasks + snapshot.phases().count());
    // The driver span is on the phase track (tid 0).
    assert!(complete.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("demo/run")
            && e.get("tid").and_then(Json::as_u64) == Some(0)
    }));
    // Shuffle flush marks surface as instant events.
    let doc = Json::parse(&text).expect("parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Json::as_str) == Some("i")
            && e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("shuffle-flush/"))
    }));
}

#[test]
fn clusters_sharing_a_collector_export_both_runs() {
    let collector = TraceCollector::enabled();
    let mut runs = Vec::new();
    for run in 0..2 {
        let cluster = Cluster::with_trace(ClusterConfig::local(2), collector.clone());
        {
            let _run = cluster.trace().span(format!("run-{run}"));
            run_workload(&cluster);
        }
        runs.push(cluster.metrics());
    }
    let snapshot = collector.snapshot();
    assert_eq!(snapshot.phases().count(), 2, "one buffer holds both runs");

    // Both runs restart stage ids at 0; the export draws every task of both.
    let text = chrome_trace_json(&snapshot, runs.iter().flat_map(|r| &r.stages));
    let tasks: usize = runs
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.spans.len())
        .sum();
    assert_eq!(complete_events(&text).len(), tasks + 2);

    // One timeline: every task of run i lies inside run i's phase span.
    for (run, metrics) in runs.iter().enumerate() {
        let phase = snapshot
            .phases()
            .find(|p| p.name == format!("run-{run}"))
            .expect("run phase recorded");
        for task in metrics.stages.iter().flat_map(|s| &s.spans) {
            assert!(phase.begin_ns <= snapshot.offset_ns(task.queued));
            assert!(snapshot.offset_ns(task.finished) <= phase.end_ns);
        }
    }
}
