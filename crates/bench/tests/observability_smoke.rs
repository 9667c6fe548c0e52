//! Harness-level observability smoke test: with a capture installed, the
//! figure measurement path produces one run report per run (validating
//! against the schema) and a Chrome trace containing the run umbrellas and
//! driver phase spans of all four paper algorithms.

use minispark::{ClusterConfig, Json};
use topk_bench::capture::Capture;
use topk_bench::{datasets, figures};
use topk_simjoin::{report, Algorithm, JoinConfig};

#[test]
fn capture_collects_valid_reports_and_phase_spans() {
    std::env::set_var("TOPK_SCALE", "0.02");
    let capture = Capture::install();
    let workload = datasets::dblp();
    let config = JoinConfig::new(0.2).with_partition_threshold(50);
    for algo in Algorithm::paper_lineup() {
        let row = figures::measure("smoke", ClusterConfig::local(2), &workload, algo, &config);
        assert_eq!(row.algorithm, algo.name());
    }
    std::env::remove_var("TOPK_SCALE");

    // One validated report per measured run.
    let reports = capture.reports();
    assert_eq!(reports.len(), 4);
    let doc = topk_simjoin::runs_to_json(&reports);
    report::validate(&doc).expect("the batch report validates");
    let parsed = Json::parse(&doc.render()).expect("the report renders to valid JSON");
    report::validate(&parsed).expect("the parsed report validates");
    for report in &reports {
        assert!(!report.analytics.stages.is_empty());
    }

    // The shared trace holds run umbrellas and phase spans for every
    // algorithm, and renders with the reports' stage rows to a parseable
    // Chrome document.
    let text = minispark::trace::chrome_trace_json(
        &capture.trace().snapshot(),
        reports.iter().flat_map(|r| &r.metrics.stages),
    );
    let trace = Json::parse(&text).expect("the Chrome trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let has_name = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    for label in ["vj", "vj-nl", "cl", "cl-p"] {
        assert!(
            has_name(&format!("{label}/run")),
            "{label}/run span missing"
        );
        for phase in ["ordering", "joining"] {
            assert!(
                has_name(&format!("{label}/phase/{phase}")),
                "{label}/phase/{phase} span missing"
            );
        }
    }
    // The harness's own umbrella around each measured run.
    assert!(events.iter().any(|e| {
        e.get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("run/smoke/"))
    }));
    // Every run's task spans land on the slot tracks.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("tid")
                .and_then(Json::as_u64)
                .is_some_and(|tid| tid > 0)
    }));
}
