//! End-to-end tests of the live metrics plane: the telemetry registry
//! observed through real `Dataset` pipelines, epoch reset between runs on
//! one cluster, the heartbeat time series, the HTTP endpoint scraped over
//! a real TCP connection, and the no-op invariance guarantee (telemetry on
//! vs. off changes nothing about results or determinism fingerprints).

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::panic)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use minispark::telemetry::{SampleValue, HEARTBEAT_SCHEMA, SNAPSHOT_SCHEMA};
use minispark::{
    check_determinism, schedule_matrix, Cluster, ClusterConfig, HashPartitioner, Json, LiveServer,
    TelemetrySource,
};

/// A small shuffle-heavy workload with a verifiable answer.
fn run_workload(cluster: &Cluster) -> Vec<(u32, u64)> {
    let records: Vec<(u32, u64)> = (0..400u32).map(|n| (n % 23, u64::from(n))).collect();
    let mut sums = cluster
        .parallelize(records, 8)
        .reduce_by_key("sum", 4, |a, b| a + b)
        .collect();
    sums.sort_unstable();
    sums
}

fn counter_value(cluster: &Cluster, name: &str) -> u64 {
    match cluster.telemetry().snapshot().find(name) {
        Some(sample) => match sample.value {
            SampleValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        },
        None => 0,
    }
}

#[test]
fn a_run_populates_the_executor_series() {
    let cluster = Cluster::new(ClusterConfig::local(2).with_telemetry());
    let sums = run_workload(&cluster);
    assert_eq!(sums.len(), 23);

    let completed = counter_value(&cluster, "minispark_tasks_completed_total");
    let claimed = counter_value(&cluster, "minispark_tasks_claimed_total");
    assert!(completed > 0, "tasks ran, the counter must show them");
    assert_eq!(claimed, completed, "every claimed task completed");
    assert!(
        counter_value(&cluster, "minispark_shuffle_records_total") > 0,
        "reduce_by_key shuffles records"
    );

    // Queue depth and in-flight shuffle records drain back to zero.
    let snapshot = cluster.telemetry().snapshot();
    for gauge in [
        "minispark_queue_depth",
        "minispark_shuffle_inflight_records",
    ] {
        let sample = snapshot.find(gauge).expect("gauge registered");
        assert_eq!(
            sample.value,
            SampleValue::Gauge(0),
            "{gauge} must drain to zero after the run"
        );
    }

    // The task-duration histogram saw one record per completed task.
    let durations = snapshot
        .find("minispark_task_duration_ns")
        .expect("histogram registered");
    match &durations.value {
        SampleValue::Histogram(data) => assert_eq!(data.count, completed),
        other => panic!("task duration is not a histogram: {other:?}"),
    }
}

/// The run-to-run bleed regression test: two runs on ONE cluster with a
/// reset in between must report identical per-run numbers — reset really
/// clears every cell and bumps the epoch.
#[test]
fn two_runs_on_one_cluster_do_not_bleed() {
    let cluster = Cluster::new(ClusterConfig::local(2).with_telemetry());

    let first_sums = run_workload(&cluster);
    let first_completed = counter_value(&cluster, "minispark_tasks_completed_total");
    let first_shuffled = counter_value(&cluster, "minispark_shuffle_records_total");
    let epoch_before = cluster.telemetry().epoch();
    assert!(first_completed > 0);

    cluster.reset_metrics();
    assert_eq!(
        cluster.telemetry().epoch(),
        epoch_before + 1,
        "reset advances the epoch"
    );
    for (name, value) in cluster
        .telemetry()
        .snapshot()
        .metrics
        .iter()
        .filter_map(|m| match m.value {
            SampleValue::Counter(v) => Some((m.series(), v)),
            _ => None,
        })
    {
        assert_eq!(value, 0, "counter {name} must be zero after reset");
    }

    let second_sums = run_workload(&cluster);
    assert_eq!(first_sums, second_sums);
    assert_eq!(
        counter_value(&cluster, "minispark_tasks_completed_total"),
        first_completed,
        "second run must report its own task count, not first + second"
    );
    assert_eq!(
        counter_value(&cluster, "minispark_shuffle_records_total"),
        first_shuffled,
        "second run must report its own shuffle volume"
    );
}

/// The shuffle and spill totals move only where a stage row is recorded, so
/// after a spilling run they equal the metrics report's sums exactly — also
/// for `partition_by`, a shuffle with no reduce wave.
#[test]
fn shuffle_and_spill_totals_equal_the_stage_rows() {
    let cluster = Cluster::new(
        ClusterConfig::local(2)
            .with_telemetry()
            .with_spill_budget(16),
    );
    let records: Vec<(u32, u64)> = (0..400u32).map(|n| (n % 23, u64::from(n))).collect();
    let grouped = cluster
        .parallelize(records, 8)
        .group_by_key_spilling("group", 4)
        .partition_by("rebalance", &HashPartitioner::new(3));
    assert_eq!(grouped.count(), 23);
    run_workload(&cluster);

    let metrics = cluster.metrics();
    let total = |n: usize| u64::try_from(n).expect("fits u64");
    assert!(metrics.total_spilled_runs() > 0, "a budget of 16 spills");
    assert_eq!(
        counter_value(&cluster, "minispark_spill_runs_total"),
        total(metrics.total_spilled_runs())
    );
    assert!(counter_value(&cluster, "minispark_spill_bytes_total") > 0);
    assert_eq!(
        counter_value(&cluster, "minispark_shuffle_records_total"),
        total(metrics.total_shuffle_records())
    );
    assert_eq!(
        counter_value(&cluster, "minispark_shuffle_bytes_total"),
        total(metrics.total_shuffle_bytes())
    );
}

#[test]
fn heartbeat_collects_a_time_series() {
    let config = ClusterConfig::local(2).with_heartbeat(Duration::from_millis(1));
    let cluster = Cluster::new(config);
    run_workload(&cluster);
    std::thread::sleep(Duration::from_millis(10));

    let doc = cluster.heartbeat_document().expect("heartbeat configured");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(HEARTBEAT_SCHEMA)
    );
    let samples = doc
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    assert!(!samples.is_empty(), "1ms cadence over >10ms yields samples");
    // Timestamps are monotonically non-decreasing.
    let times: Vec<f64> = samples
        .iter()
        .map(|s| s.get("t_ms").and_then(Json::as_f64).expect("t_ms"))
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    // Every sample carries the metrics map.
    assert!(samples.iter().all(|s| s.get("metrics").is_some()));
}

/// A reset ends the run for the heartbeat too: after it, the document holds
/// only samples of the new registry epoch, even with the sampler thread
/// racing the reset at a 1 ms cadence.
#[test]
fn heartbeat_samples_do_not_survive_a_reset() {
    let config = ClusterConfig::local(2).with_heartbeat(Duration::from_millis(1));
    let cluster = Cluster::new(config);
    run_workload(&cluster);
    std::thread::sleep(Duration::from_millis(10));
    cluster.reset_metrics();
    run_workload(&cluster);

    let epoch = cluster.telemetry().epoch();
    assert_eq!(epoch, 1, "one reset, one epoch bump");
    let doc = cluster.heartbeat_document().expect("heartbeat configured");
    let samples = doc
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    assert!(
        !samples.is_empty(),
        "the final flush sample is always there"
    );
    for sample in samples {
        assert_eq!(
            sample.get("epoch").and_then(Json::as_u64),
            Some(epoch),
            "a pre-reset sample leaked into the document: {}",
            sample.render()
        );
    }
}

/// One blocking HTTP exchange against the live endpoint.
fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("endpoint reachable");
    stream
        .write_all(request.as_bytes())
        .expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn live_endpoint_serves_prometheus_and_json_over_tcp() {
    let cluster = Cluster::new(ClusterConfig::local(2).with_telemetry());
    // Port 0: the OS picks a free port — parallel test runs never collide.
    let server = LiveServer::start(0, TelemetrySource::new(cluster.telemetry().clone()))
        .expect("ephemeral bind");
    let addr = server.addr();
    run_workload(&cluster);

    let metrics = get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("text/plain; version=0.0.4"),
        "Prometheus exposition content type: {metrics}"
    );
    let body = metrics.split("\r\n\r\n").nth(1).expect("body present");
    assert!(
        body.contains("# TYPE minispark_tasks_completed_total counter"),
        "{body}"
    );
    assert!(
        body.lines()
            .any(|l| l.starts_with("minispark_tasks_completed_total ")),
        "{body}"
    );
    // Histograms expose the cumulative bucket form.
    assert!(
        body.contains("minispark_task_duration_ns_bucket{le=\"+Inf\"}"),
        "{body}"
    );

    let snapshot = get(addr, "/snapshot");
    assert!(snapshot.starts_with("HTTP/1.1 200 OK\r\n"), "{snapshot}");
    assert!(snapshot.contains("application/json"), "{snapshot}");
    let body = snapshot.split("\r\n\r\n").nth(1).expect("body present");
    let doc = Json::parse(body).expect("snapshot body parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(SNAPSHOT_SCHEMA)
    );

    assert!(
        get(addr, "/nope").starts_with("HTTP/1.1 404"),
        "unknown path"
    );
    let post = http(
        addr,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(post.starts_with("HTTP/1.1 405"), "{post}");
}

/// Telemetry must be a pure observer: the same workload with the full live
/// plane on (registry + heartbeat) passes the determinism checker with the
/// same reference result as the plain run.
#[test]
fn telemetry_does_not_change_results_or_fingerprints() {
    let schedules = schedule_matrix(2, 3);
    let plain = check_determinism(
        &ClusterConfig::local(2).with_default_partitions(4),
        &[1, 3],
        &schedules,
        run_workload,
    )
    .expect("plain workload is deterministic");
    let live = check_determinism(
        &ClusterConfig::local(2)
            .with_default_partitions(4)
            .with_heartbeat(Duration::from_millis(1)),
        &[1, 3],
        &schedules,
        run_workload,
    )
    .expect("telemetry-on workload is deterministic");
    assert_eq!(
        plain.reference, live.reference,
        "telemetry changed the computed result"
    );
    assert_eq!(plain.runs, live.runs);
}
