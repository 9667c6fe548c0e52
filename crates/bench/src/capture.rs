//! Process-wide observability capture for the benchmark harness.
//!
//! The figure runners in [`crate::figures`] create one fresh [`Cluster`]
//! per measured run, so a trace/report consumer cannot simply hold a cluster
//! handle. Instead, a harness frontend (the `experiments` binary, an
//! example) [`Capture::install`]s a process-wide capture once; from then on
//! every `measure*` call builds its cluster on the capture's one shared
//! collector (every run's phases and marks on one timeline) and pushes a
//! [`RunReport`], whose stage rows carry the run's task spans. The Chrome
//! export draws the collector's snapshot together with those rows.
//!
//! [`Capture::install_with`] additionally switches on the live metrics
//! plane: every measured cluster runs with telemetry and a heartbeat
//! sampler (its series ends up in the run's report), and a capture-owned
//! HTTP endpoint serves `/metrics` and `/snapshot` across runs (each new
//! cluster's registry is swapped into the shared [`TelemetrySource`], so one
//! bound port outlives every short-lived cluster).
//!
//! When nothing is installed the harness behaves exactly as before: clusters
//! get the default disabled collector, telemetry stays a no-op, and the
//! measured runs pay nothing.

use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use minispark::{Cluster, ClusterConfig, LiveServer, TelemetrySource, TraceCollector};
use topk_simjoin::RunReport;

static CAPTURE: OnceLock<Capture> = OnceLock::new();

/// Heartbeat sampling cadence for captured runs: coarse enough to stay far
/// under the ≤2% overhead budget, fine enough to resolve per-stage shape.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Telemetry options of one capture installation.
#[derive(Debug, Default, Clone)]
pub struct CaptureSettings {
    /// Bind the live `/metrics` + `/snapshot` endpoint on this port
    /// (`0` = ephemeral); measured clusters then run with telemetry and a
    /// heartbeat.
    pub endpoint_port: Option<u16>,
}

/// The process-wide trace collector and run-report accumulator.
#[derive(Debug)]
pub struct Capture {
    trace: TraceCollector,
    reports: Mutex<Vec<RunReport>>,
    settings: CaptureSettings,
    /// The shared registry slot plus the server holding it open; `None`
    /// without `endpoint_port` (or if the bind failed — reported, not fatal).
    live: Option<(TelemetrySource, LiveServer)>,
}

impl Capture {
    /// Installs (or returns the already-installed) process-wide capture with
    /// an enabled collector and default (telemetry-off) settings. Idempotent.
    pub fn install() -> &'static Capture {
        Self::install_with(CaptureSettings::default())
    }

    /// Installs the process-wide capture with explicit telemetry settings.
    /// The first installation wins; later calls return it unchanged.
    pub fn install_with(settings: CaptureSettings) -> &'static Capture {
        CAPTURE.get_or_init(|| {
            let live = settings.endpoint_port.and_then(|port| {
                let source = TelemetrySource::new(minispark::TelemetryRegistry::enabled());
                match LiveServer::start(port, source.clone()) {
                    Ok(server) => {
                        eprintln!("# live metrics endpoint: http://{}/metrics", server.addr());
                        Some((source, server))
                    }
                    Err(e) => {
                        eprintln!("# live endpoint bind on port {port} failed: {e}");
                        None
                    }
                }
            });
            Capture {
                trace: TraceCollector::enabled(),
                reports: Mutex::new(Vec::new()),
                settings,
                live,
            }
        })
    }

    /// The installed capture, if any. The figure runners check this on
    /// every measurement.
    pub fn active() -> Option<&'static Capture> {
        CAPTURE.get()
    }

    /// The shared collector every measured cluster records onto.
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// A cluster for one measured run, recording onto the shared collector.
    /// With an endpoint port set, it also runs telemetry and the heartbeat
    /// sampler (so its report carries the time series), and the live
    /// endpoint is pointed at its registry: scrapes observe the new run
    /// without the server rebinding.
    pub fn cluster(&self, config: ClusterConfig) -> Cluster {
        let config = if self.settings.endpoint_port.is_some() {
            config.with_heartbeat(HEARTBEAT_INTERVAL)
        } else {
            config
        };
        let cluster = Cluster::with_trace(config, self.trace.clone());
        if let Some((source, _)) = &self.live {
            source.set(cluster.telemetry().clone());
        }
        cluster
    }

    /// Appends one finished run's report.
    pub fn push(&self, report: RunReport) {
        self.reports
            .lock()
            .expect("capture report lock poisoned")
            .push(report);
    }

    /// A copy of all reports accumulated so far, in run order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.reports
            .lock()
            .expect("capture report lock poisoned")
            .clone()
    }
}
