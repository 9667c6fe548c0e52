//! The live metrics plane end to end: a telemetry-enabled cluster with a
//! heartbeat sampler and an HTTP endpoint, scraped over TCP *while* a
//! skewed CL-P join is running, then the post-run artifacts — the
//! Prometheus exposition, the JSON snapshot, and the heartbeat time series
//! embedded in the run report.
//!
//! ```text
//! cargo run --release --example live_metrics
//! ```
//!
//! While it runs you can also watch from another terminal:
//!
//! ```text
//! curl -s http://127.0.0.1:9898/metrics   # Prometheus text exposition
//! curl -s http://127.0.0.1:9898/snapshot  # the same registry as JSON
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use minispark::{Cluster, ClusterConfig, LiveServer, TelemetrySource};
use topk_datagen::CorpusProfile;
use topk_simjoin::{Algorithm, JoinConfig, RunReport};

/// One blocking HTTP GET against the cluster's own live endpoint.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("live endpoint reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response
}

fn main() {
    // Telemetry + heartbeat from the cluster config, and an endpoint over
    // the cluster's registry. Port 9898 keeps the curl commands above
    // copy-pasteable; if it is taken, the example runs without the server.
    let config = ClusterConfig::local(4)
        .with_default_partitions(32)
        .with_heartbeat(Duration::from_millis(25));
    let cluster = Cluster::new(config);
    let server = LiveServer::start(9898, TelemetrySource::new(cluster.telemetry().clone()))
        .map_err(|err| eprintln!("live endpoint bind on port 9898 failed: {err}"))
        .ok();
    let addr = server.as_ref().map(LiveServer::addr);

    // A Zipf-skewed corpus: a few hot tokens concentrate the join work, so
    // the skew counters and the occupancy story have something to show.
    let data = CorpusProfile {
        name: "zipf-hot".to_string(),
        num_records: 4_000,
        vocab_size: 256,
        zipf_skew: 1.4,
        k: 10,
        near_dup_rate: 0.2,
        seed: 0x51C3,
    }
    .generate();
    let join_config = JoinConfig::new(0.3).with_partition_threshold(100);

    // Scrape mid-run from a watcher thread while the join executes.
    let watcher = addr.map(|addr| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            scrape(addr, "/metrics")
        })
    });

    let outcome = Algorithm::ClP
        .run(&cluster, &data, &join_config)
        .expect("example join failed");
    println!(
        "CL-P joined {} rankings -> {} pairs",
        data.len(),
        outcome.pairs.len()
    );

    if let Some(handle) = watcher {
        let mid_run = handle.join().expect("watcher thread");
        let lines: Vec<&str> = mid_run
            .lines()
            .filter(|l| l.starts_with("minispark_tasks_completed_total"))
            .collect();
        println!("\n== mid-run /metrics scrape (excerpt) ==");
        for line in &lines {
            println!("{line}");
        }
    }

    // The full exposition after the run: counters, gauges, histograms. The
    // run published its counters once, as it finished, under `cl-p`.
    if let Some(addr) = addr {
        let exposition = scrape(addr, "/metrics");
        let body = exposition.split("\r\n\r\n").nth(1).unwrap_or(&exposition);
        println!("\n== final /metrics (the run's join series) ==");
        for line in body.lines().filter(|l| l.starts_with("simjoin_")) {
            println!("{line}");
        }
    }

    // The same registry, programmatically: no HTTP needed in-process.
    let snapshot = cluster.telemetry().snapshot();
    if let Some(depth) = snapshot.find("minispark_queue_depth") {
        println!("\nqueue depth after the run: {depth:?} (drained)");
    }

    // The heartbeat time series rides along in the run report.
    let report = RunReport::capture(
        Algorithm::ClP.name(),
        "zipf-hot",
        data.len(),
        &cluster,
        &join_config,
        &outcome,
        cluster.config().task_slots(),
    );
    let doc = report.to_json();
    let samples = doc
        .get("heartbeat")
        .and_then(|h| h.get("samples"))
        .and_then(minispark::Json::as_arr)
        .map_or(0, <[minispark::Json]>::len);
    println!("heartbeat samples captured: {samples}");

    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir).expect("could not create results/");
    let report_path = out_dir.join("live_metrics.report.json");
    std::fs::write(&report_path, doc.render()).expect("could not write the report");
    println!("wrote {}", report_path.display());
}
