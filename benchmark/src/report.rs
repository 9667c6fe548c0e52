//! Metric names and units, the result of a run, and how it is printed.

use std::io::Write as _;
use std::path::Path;

use crate::layers::Json;
use crate::oracle::Checks;

/// A metric the benchmark reports: `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `BENCHMARK.json` fixes direction and bound; the README says what each
/// means on each workload.
pub const END_TO_END: &[MetricDef] = &[
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`; the prefix is the module.
/// A layer the workload does not enter reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("pipeline.ordering_s", "s"),
    ("pipeline.emit_prefixes_s", "s"),
    ("pipeline.prefix_tokens_per_record", "count"),
    ("minispark.group_by_key_s", "s"),
    ("minispark.reduce_by_key_s", "s"),
    ("minispark.shuffle_bytes_per_record", "B"),
    ("minispark.max_partition_share", "ratio"),
    ("minispark.two_slot_speedup", "ratio"),
    ("kernels.indexed_s", "s"),
    ("kernels.nested_loop_s", "s"),
    ("kernels.ns_per_candidate", "ns"),
    ("kernels.verified_per_candidate", "ratio"),
    ("kernels.results_per_verified", "ratio"),
    ("kernels.max_group_len", "count"),
    ("rankings.verify_ns_per_pair", "ns"),
    ("rankings.order_ns_per_record", "ns"),
    ("clustering.clustering_s", "s"),
    ("clustering.clustered_share", "ratio"),
    ("centroid_join.joining_s", "s"),
    ("expansion.expansion_s", "s"),
    ("expansion.triangle_decided_share", "ratio"),
    ("index.build_s", "s"),
    ("index.range_query_us", "us"),
    ("index.candidates_per_query", "count"),
    ("index.results_per_candidate", "ratio"),
    ("index.insert_us", "us"),
    ("index.remove_us", "us"),
    ("index.compact_s", "s"),
    ("arrivals.batch_us", "us"),
    ("serving.query_us", "us"),
    ("serving.upsert_us", "us"),
    ("serving.query_p99_under_writer_us", "us"),
    ("serving.upsert_stall_max_ms", "ms"),
    ("serving.stall_share", "ratio"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_record", "B"),
    ("wal.snapshot_s", "s"),
    ("wal.sync_us", "us"),
    ("wal.replay_s", "s"),
    ("wal.disk_bytes_per_live_byte", "ratio"),
    ("http.overhead_us", "us"),
    ("http.notfound_roundtrip_us", "us"),
    ("http.connects_per_request", "ratio"),
    ("http.response_bytes_per_match", "B"),
    ("layers.coverage", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Samples behind it (0 when it is a single measurement or a ratio).
    pub samples: usize,
}

/// A human-facing detail row that is not a contract metric (the issue's
/// per-workload names: `join_wall_s`, `query_p99_us`, `recovery_s`, …).
#[derive(Debug, Clone)]
pub struct Detail {
    /// Row name.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Contract metrics (end-to-end or per-layer, by `--trace`).
    pub values: Vec<Value>,
    /// Extra rows for the human reader and `--out`.
    pub details: Vec<Detail>,
    /// Operations and oracle checks.
    pub checks: Checks,
    /// FNV-1a of the generated inputs.
    pub input_checksum: u64,
}

impl Outcome {
    /// Records a contract metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.values.push(Value {
            name,
            value,
            samples,
        });
    }

    /// Records a detail row.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.details.push(Detail {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// Where and on what the run happened.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// Frozen input size of the workload.
    pub n: usize,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub git_rev: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Filesystem type under the scratch (WAL) directory.
    pub fs_type: String,
}

/// The commit `HEAD` points at, read from `.git` without running git.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            dir.starts_with(mount_point)
                .then_some((mount_point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The contract metrics of this run, in declaration order: every declared
/// metric appears; one the workload never set reports 0.
fn contract_values(outcome: &Outcome, trace: bool) -> Vec<(MetricDef, f64)> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    defs.iter()
        .map(|def| (*def, outcome.get(def.0).unwrap_or(0.0)))
        .collect()
}

fn metrics_json(outcome: &Outcome, trace: bool) -> Json {
    let mut metrics = Json::obj();
    for ((name, unit), value) in contract_values(outcome, trace) {
        metrics.push(
            name,
            Json::obj()
                .with("value", Json::num(value))
                .with("unit", Json::str(unit)),
        );
    }
    metrics
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    Json::obj()
        .with("correct", Json::Bool(outcome.checks.failed == 0))
        .with("attempted", Json::num_u64(outcome.checks.attempted.max(1)))
        .with("failed", Json::num_u64(outcome.checks.failed))
        .with("metrics", metrics_json(outcome, trace))
        .render()
}

/// The human-readable report: provenance, every metric by name with unit
/// and sample count, the detail rows, and what failed.
pub fn print_report(p: &Provenance, outcome: &Outcome) {
    println!(
        "# workload={} seed={} seconds={} trace={} n={} input_checksum={:016x}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        p.n,
        outcome.input_checksum
    );
    println!(
        "# git={} rustc=\"{}\" nproc={} scratch_fs={}",
        p.git_rev, p.rustc, p.nproc, p.fs_type
    );
    println!(
        "{:<40} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for ((name, unit), value) in contract_values(outcome, p.trace) {
        let samples = outcome
            .values
            .iter()
            .find(|v| v.name == name)
            .map_or(0, |v| v.samples);
        println!("{name:<40} {value:>16.4} {unit:<6} {samples:>8}");
    }
    for d in &outcome.details {
        println!(
            "{:<40} {:>16.4} {:<6} {:>8}",
            d.name, d.value, d.unit, d.samples
        );
    }
    println!(
        "{:<40} {:>16.6} {:<6} {:>8}",
        "error_rate",
        outcome.checks.error_rate(),
        "ratio",
        outcome.checks.attempted
    );
    for message in &outcome.checks.messages {
        println!("! {message}");
    }
}

/// Appends the run as one JSON line to `path` (the input of `compare`).
pub fn append_out(path: &Path, p: &Provenance, outcome: &Outcome) -> std::io::Result<()> {
    let mut details = Json::obj();
    for d in &outcome.details {
        details.push(
            d.name,
            Json::obj()
                .with("value", Json::num(d.value))
                .with("unit", Json::str(d.unit))
                .with("samples", Json::num_usize(d.samples)),
        );
    }
    let doc = Json::obj()
        .with("workload", Json::str(p.workload))
        .with("seed", Json::num_u64(p.seed))
        .with("seconds", Json::num_u64(p.seconds))
        .with("trace", Json::Bool(p.trace))
        .with("n", Json::num_usize(p.n))
        .with(
            "input_checksum",
            Json::str(format!("{:016x}", outcome.input_checksum)),
        )
        .with("git_rev", Json::str(p.git_rev.clone()))
        .with("rustc", Json::str(p.rustc))
        .with("nproc", Json::num_usize(p.nproc))
        .with("scratch_fs", Json::str(p.fs_type.clone()))
        .with("attempted", Json::num_u64(outcome.checks.attempted))
        .with("failed", Json::num_u64(outcome.checks.failed))
        .with("error_rate", Json::num(outcome.checks.error_rate()))
        .with("metrics", metrics_json(outcome, p.trace))
        .with("details", details);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(doc.render().as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
        let spec = spec();
        let as_owned = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec, "end_to_end"), as_owned(END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), as_owned(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.set("setup_s", 0.25, 5);
        outcome.checks.add(10, 0, "ops");
        let line = Json::parse(&result_line(&outcome, false)).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        let traced = Json::parse(&result_line(&outcome, true)).expect("JSON");
        assert_eq!(
            traced.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(PER_LAYER.len())
        );
    }
}
