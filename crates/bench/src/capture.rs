//! Process-wide observability capture for the benchmark harness.
//!
//! The figure runners in [`crate::figures`] create one fresh [`Cluster`]
//! per measured run, so a trace/report consumer cannot simply hold a cluster
//! handle. Instead, a harness frontend (the `experiments` binary, an
//! example) [`Capture::install`]s a process-wide capture once; from then on
//! every `measure*` call runs its cluster with a [`TraceCollector::fork`] of
//! the shared collector, merges the run's events back (one comparable
//! timeline across runs) and pushes a [`RunReport`].
//!
//! [`Capture::install_with`] additionally switches on the live metrics
//! plane: every measured cluster runs with telemetry and a heartbeat
//! sampler, an optional capture-owned HTTP endpoint serves `/metrics` and
//! `/snapshot` across runs (each new cluster's registry is swapped into the
//! shared [`TelemetrySource`], so one bound port outlives every short-lived
//! cluster), and each run's final telemetry snapshot is retained for a
//! `--metrics-out` style export.
//!
//! When nothing is installed the harness behaves exactly as before: clusters
//! get the default disabled collector, telemetry stays a no-op, and the
//! measured runs pay nothing.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use minispark::{Cluster, ClusterConfig, Json, LiveServer, TelemetrySource, TraceCollector};
use topk_simjoin::RunReport;

static CAPTURE: OnceLock<Capture> = OnceLock::new();

/// Heartbeat sampling cadence for captured runs: coarse enough to stay far
/// under the ≤2% overhead budget, fine enough to resolve per-stage shape.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Schema identifier of the [`Capture::metrics_document`] batch.
pub const SNAPSHOTS_SCHEMA: &str = "minispark/telemetry-snapshots/v1";

/// Telemetry options of one capture installation.
#[derive(Debug, Default, Clone)]
pub struct CaptureSettings {
    /// Bind the live `/metrics` + `/snapshot` endpoint on this port
    /// (`0` = ephemeral).
    pub endpoint_port: Option<u16>,
    /// Retain each run's final telemetry snapshot for export.
    pub metrics_out: Option<PathBuf>,
}

impl CaptureSettings {
    /// Whether these settings need telemetry-enabled clusters.
    pub fn telemetry(&self) -> bool {
        self.endpoint_port.is_some() || self.metrics_out.is_some()
    }
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
    snapshots: Mutex<Vec<Json>>,
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
                snapshots: Mutex::new(Vec::new()),
            }
        })
    }

    /// The installed capture, if any. The figure runners check this on
    /// every measurement.
    pub fn active() -> Option<&'static Capture> {
        CAPTURE.get()
    }

    /// The shared collector (fork it per run; merge back with
    /// [`TraceCollector::extend`]).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// The settings this capture was installed with.
    pub fn settings(&self) -> &CaptureSettings {
        &self.settings
    }

    /// The live endpoint's bound address, if one is serving.
    pub fn live_addr(&self) -> Option<std::net::SocketAddr> {
        self.live.as_ref().map(|(_, server)| server.addr())
    }

    /// Applies the capture's telemetry settings to a run's cluster config:
    /// with telemetry on, every measured cluster also runs the heartbeat
    /// sampler so its reports carry the time series.
    pub fn cluster_config(&self, config: ClusterConfig) -> ClusterConfig {
        if self.settings.telemetry() {
            config.with_heartbeat(HEARTBEAT_INTERVAL)
        } else {
            config
        }
    }

    /// Points the live endpoint at `cluster`'s registry. Call right after
    /// creating each measured cluster; scrapes then observe the new run
    /// without the server rebinding.
    pub fn attach(&self, cluster: &Cluster) {
        if let Some((source, _)) = &self.live {
            source.set(cluster.telemetry().clone());
        }
    }

    /// Records the end of one measured run: retains the cluster's final
    /// telemetry snapshot (when telemetry is on) for [`Self::metrics_document`].
    pub fn finish_run(&self, cluster: &Cluster) {
        if cluster.telemetry().is_enabled() {
            // Snapshot first: it takes the registry lock internally, and a
            // concurrent scrape must never wait on the snapshots lock (and
            // vice versa) just because a run happened to finish.
            let doc = cluster.telemetry().snapshot().to_json();
            self.snapshots
                .lock()
                .expect("capture snapshot lock poisoned")
                .push(doc);
        }
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

    /// All retained per-run telemetry snapshots as one
    /// `minispark/telemetry-snapshots/v1` document.
    pub fn metrics_document(&self) -> Json {
        let snapshots = self
            .snapshots
            .lock()
            .expect("capture snapshot lock poisoned")
            .clone();
        Json::obj()
            .with("schema", Json::str(SNAPSHOTS_SCHEMA))
            .with("snapshots", Json::Arr(snapshots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_settings_keep_telemetry_off() {
        assert!(!CaptureSettings::default().telemetry());
    }

    #[test]
    fn any_telemetry_flag_switches_telemetry_on() {
        let live = CaptureSettings {
            endpoint_port: Some(0),
            ..CaptureSettings::default()
        };
        assert!(live.telemetry());
        let metrics = CaptureSettings {
            metrics_out: Some(PathBuf::from("metrics.json")),
            ..CaptureSettings::default()
        };
        assert!(metrics.telemetry());
    }
}
