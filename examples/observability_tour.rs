//! Observing a run: the tracing layer end to end — an enabled
//! [`TraceCollector`], VJ and CL-P on the same corpus, the per-stage metrics
//! table (wall and simulated time), executor analytics (occupancy, idle
//! fraction, queue waits, critical path), and the two JSON exports: a
//! Chrome `trace_event` file for Perfetto and a run-report document.
//!
//! ```text
//! cargo run --release --example observability_tour
//! ```
//!
//! Open `results/observability_tour.trace.json` in <https://ui.perfetto.dev>
//! (or `chrome://tracing`): one track per executor slot, with the drivers'
//! phase spans (Ordering → Clustering → Joining → Expansion) stacked on the
//! `phases` track above them.

use minispark::{trace, Cluster, ClusterConfig, TraceCollector};
use topk_datagen::CorpusProfile;
use topk_simjoin::{runs_to_json, Algorithm, JoinConfig, RunReport};

fn main() {
    // One collector for the whole tour: both runs' clusters record their
    // phases onto it, on one timeline. Task spans live in each run's stage
    // rows, which the report carries.
    let collector = TraceCollector::enabled();
    let data = CorpusProfile::orku_like(1_500, 10).generate();
    // A small δ so CL-P actually splits posting lists — in the trace this
    // shows as many short joining tasks replacing a few long ones.
    let config = JoinConfig::new(0.3).with_partition_threshold(100);
    let exec = ClusterConfig::local(4).with_default_partitions(32);

    let mut reports = Vec::new();
    for algo in [Algorithm::Vj, Algorithm::ClP] {
        let cluster = Cluster::with_trace(exec.clone(), collector.clone());
        let outcome = algo
            .run(&cluster, &data, &config)
            .expect("example join failed");
        println!("== {} ({} pairs) ==", algo.name(), outcome.pairs.len());
        println!("{}", cluster.metrics());

        let report = RunReport::capture(
            algo.name(),
            "orku-like",
            data.len(),
            &cluster,
            &config,
            &outcome,
            cluster.config().task_slots(),
        );
        let analytics = &report.analytics;
        println!(
            "executor: occupancy {:.0}%, idle {:.0}%, busy {:.1} ms, critical path {:.1} ms",
            100.0 * analytics.overall_occupancy(),
            100.0 * analytics.overall_idle_fraction(),
            analytics.total_busy().as_secs_f64() * 1e3,
            analytics.critical_path().as_secs_f64() * 1e3,
        );
        // The three stages with the worst queue waits — where tasks sat
        // waiting for a free slot.
        let mut waits: Vec<_> = analytics.stages.iter().collect();
        waits.sort_by_key(|s| std::cmp::Reverse(s.queue_wait_max));
        for stage in waits.iter().take(3) {
            println!(
                "  queue wait {:<32} p50 {:>7.3} ms  p95 {:>7.3} ms  max {:>7.3} ms",
                stage.stage,
                stage.queue_wait_p50.as_secs_f64() * 1e3,
                stage.queue_wait_p95.as_secs_f64() * 1e3,
                stage.queue_wait_max.as_secs_f64() * 1e3,
            );
        }
        println!();
        reports.push(report);
    }

    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir).expect("could not create results/");
    let trace_path = out_dir.join("observability_tour.trace.json");
    let stages = reports.iter().flat_map(|r| &r.metrics.stages);
    std::fs::write(
        &trace_path,
        trace::chrome_trace_json(&collector.snapshot(), stages),
    )
    .expect("could not write the trace");
    let report_path = out_dir.join("observability_tour.report.json");
    std::fs::write(&report_path, runs_to_json(&reports).render())
        .expect("could not write the report");
    println!("wrote {}", trace_path.display());
    println!("wrote {}", report_path.display());
    println!("open the trace in https://ui.perfetto.dev (or chrome://tracing)");
}
