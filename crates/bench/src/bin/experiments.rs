//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation as CSV series, plus the R-S and arrival-stream
//! experiments over external ranking files.
//!
//! ```text
//! experiments [fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table3|all] …
//!             [rs --right <path>] [arrivals --arrivals <path> [--batch-size <n>]]
//!             [--scale <f>] [--trace-out <path>] [--report-out <path>]
//!             [--live-port <port>]
//!
//! TOPK_SCALE=2.0 experiments fig6     # run at twice the default size
//! experiments fig6 --scale 0.05 --trace-out trace.json --report-out run.json
//! experiments fig8 --live-port 9898   # curl localhost:9898/metrics mid-run
//! experiments rs --right other.txt    # R-S join: ORKU corpus vs. a file
//! experiments arrivals --arrivals stream.txt --batch-size 100
//! ```
//!
//! Results are printed to stdout and also written to `results/<id>.csv`.
//! With `--trace-out`, every run records its phases onto one shared trace
//! timeline and a Chrome `trace_event` document (Perfetto-loadable) is
//! written at the end, drawing those phases with every run's task spans;
//! with `--report-out`, one JSON run report per measured run (metrics,
//! stats, configs, executor analytics, heartbeat) is written. `--live-port`
//! serves live Prometheus `/metrics` and JSON `/snapshot` for the run in
//! flight (port 0 picks an ephemeral port) and switches measured clusters to
//! telemetry + heartbeat mode, so each run report ends with a sample of the
//! whole registry. `--scale` is a command-line synonym for the `TOPK_SCALE`
//! environment variable.
//!
//! The `rs` experiment joins the scaled ORKU-like corpus (left) against the
//! rankings file named by `--right` with every R-S driver; `arrivals`
//! streams the file named by `--arrivals` against the same corpus in
//! mini-batches of `--batch-size` (default 64). Inconsistent flag combos —
//! `--right` together with `--arrivals`, `--batch-size` without
//! `--arrivals`, or an `rs`/`arrivals` id without its input file (and vice
//! versa) — are hard usage errors, not silently ignored.

use std::path::PathBuf;

use minispark::Json;
use topk_bench::capture::{Capture, CaptureSettings};
use topk_bench::figures;
use topk_bench::report::{print_csv, write_csv, Row};

fn results_dir() -> PathBuf {
    std::env::var("TOPK_RESULTS_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

fn run_figure(id: &str) -> bool {
    let rows: Vec<Row> = match id {
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(),
        "fig8" => figures::fig8(),
        "fig9" => figures::fig9(),
        "fig10" => figures::fig10(),
        "fig11" => figures::fig11(),
        "fig12" => figures::fig12(),
        "fig13" => figures::fig13(),
        "ablations" => figures::ablations(),
        "phases" => {
            for theta in [0.1, 0.4] {
                println!("== CL-P phase breakdown at θ = {theta} (ORKU) ==");
                let phases = figures::phase_breakdown(theta);
                let total: f64 = phases.iter().map(|(_, s)| s).sum();
                for (phase, seconds) in phases {
                    println!(
                        "{phase:<24} {:>8.1} ms  ({:>4.1}%)",
                        seconds * 1e3,
                        100.0 * seconds / total
                    );
                }
            }
            return true;
        }
        "table3" => {
            println!("== Table 3: Spark parameters (paper) vs. simulated cluster ==");
            for (key, value) in figures::table3() {
                println!("{key:<28} {value}");
            }
            return true;
        }
        _ => return false,
    };
    emit_rows(id, &rows);
    true
}

/// Prints a row set as CSV and mirrors it to `results/<id>.csv`.
fn emit_rows(id: &str, rows: &[Row]) {
    eprintln!("# {id}: {} rows", rows.len());
    print_csv(rows);
    let path = results_dir().join(format!("{id}.csv"));
    match write_csv(&path, rows) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

/// The display name of an input file: its stem, or the whole path when
/// there is none.
fn input_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
}

/// Writes `text` to `path`, creating parent directories as needed.
fn write_output(path: &str, text: &str, what: &str) {
    let path = PathBuf::from(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("# could not create {}: {e}", parent.display());
                return;
            }
        }
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("# wrote {what} to {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

#[derive(Debug)]
struct Options {
    ids: Vec<String>,
    trace_out: Option<String>,
    report_out: Option<String>,
    endpoint_port: Option<u16>,
    right: Option<String>,
    arrivals: Option<String>,
    batch_size: Option<usize>,
}

/// Splits the value-taking flags (`--scale`, `--trace-out`, `--report-out`,
/// `--live-port`, `--right`, `--arrivals`, `--batch-size`)
/// from the experiment ids, then rejects inconsistent combinations — a
/// flag that contradicts another flag or an id that is missing its operand
/// is a usage error, never silently ignored. `--scale` is applied to
/// `TOPK_SCALE` right here, before any workload is built.
fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut ids = Vec::new();
    let mut trace_out = None;
    let mut report_out = None;
    let mut endpoint_port = None;
    let mut right = None;
    let mut arrivals = None;
    let mut batch_size = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" | "--trace-out" | "--report-out" | "--live-port" | "--right"
            | "--arrivals" | "--batch-size" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                match arg.as_str() {
                    "--scale" => {
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("--scale {value}: not a positive number"))?;
                        std::env::set_var("TOPK_SCALE", &value);
                    }
                    "--trace-out" => trace_out = Some(value),
                    "--report-out" => report_out = Some(value),
                    "--live-port" => {
                        endpoint_port = Some(
                            value
                                .parse::<u16>()
                                .map_err(|_| format!("--live-port {value}: not a port number"))?,
                        );
                    }
                    "--right" => right = Some(value),
                    "--arrivals" => arrivals = Some(value),
                    _ => {
                        batch_size =
                            Some(value.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(
                                || format!("--batch-size {value}: not a positive integer"),
                            )?);
                    }
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => ids.push(arg),
        }
    }
    let options = Options {
        ids,
        trace_out,
        report_out,
        endpoint_port,
        right,
        arrivals,
        batch_size,
    };
    options.validate()?;
    Ok(options)
}

impl Options {
    /// Cross-flag consistency: every operand must be consumed by the
    /// requested experiments and every requested experiment must have its
    /// operand.
    fn validate(&self) -> Result<(), String> {
        if self.right.is_some() && self.arrivals.is_some() {
            return Err(
                "--right and --arrivals are mutually exclusive (run `rs` and `arrivals` \
                 separately)"
                    .into(),
            );
        }
        if self.batch_size.is_some() && self.arrivals.is_none() {
            return Err("--batch-size requires --arrivals".into());
        }
        let wants_rs = self.ids.iter().any(|id| id == "rs");
        let wants_arrivals = self.ids.iter().any(|id| id == "arrivals");
        if wants_rs && self.right.is_none() {
            return Err("the rs experiment requires --right <path>".into());
        }
        if wants_arrivals && self.arrivals.is_none() {
            return Err("the arrivals experiment requires --arrivals <path>".into());
        }
        if self.right.is_some() && !wants_rs {
            return Err("--right is only consumed by the rs experiment".into());
        }
        if self.arrivals.is_some() && !wants_arrivals {
            return Err("--arrivals is only consumed by the arrivals experiment".into());
        }
        Ok(())
    }
}

/// Loads a rankings file for the `rs`/`arrivals` experiments, exiting with
/// a usage error when it cannot be read.
fn load_rankings(path: &str, flag: &str) -> Vec<topk_rankings::Ranking> {
    match topk_datagen::io::read_rankings(std::path::Path::new(path)) {
        Ok(rankings) => rankings,
        Err(e) => {
            eprintln!("{flag} {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let Options {
        ids: args,
        trace_out,
        report_out,
        endpoint_port,
        right,
        arrivals,
        batch_size,
    } = match parse_args(std::env::args().skip(1).collect()) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let capture = if trace_out.is_some() || report_out.is_some() || endpoint_port.is_some() {
        Some(Capture::install_with(CaptureSettings { endpoint_port }))
    } else {
        None
    };
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        [
            "table3",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablations",
            "phases",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect()
    } else {
        args
    };

    eprintln!(
        "# workload scale: TOPK_SCALE = {} (DBLP base {}, ORKU base {})",
        topk_bench::datasets::scale(),
        topk_bench::datasets::DBLP_BASE,
        topk_bench::datasets::ORKU_BASE,
    );
    for id in ids {
        match id.as_str() {
            "rs" => {
                let path = right.as_deref().expect("validated: rs requires --right");
                let data = load_rankings(path, "--right");
                emit_rows("rs", &figures::rs_join_rows(&data, &input_name(path)));
            }
            "arrivals" => {
                let path = arrivals
                    .as_deref()
                    .expect("validated: arrivals requires --arrivals");
                let data = load_rankings(path, "--arrivals");
                let rows =
                    figures::arrivals_rows(&data, &input_name(path), batch_size.unwrap_or(64));
                emit_rows("arrivals", &rows);
            }
            _ if run_figure(&id) => {}
            _ => {
                eprintln!(
                    "unknown experiment '{id}' — expected fig6..fig13, ablations, phases, \
                     table3, rs, arrivals or all"
                );
                std::process::exit(2);
            }
        }
    }

    let Some(capture) = capture else { return };
    let reports = capture.reports();
    if let Some(path) = trace_out {
        let text = minispark::trace::chrome_trace_json(
            &capture.trace().snapshot(),
            reports.iter().flat_map(|r| &r.metrics.stages),
        );
        // Self-check: the emitted document must parse back.
        if let Err(e) = Json::parse(&text) {
            eprintln!("# internal error: chrome trace does not parse: {e}");
            std::process::exit(1);
        }
        write_output(&path, &text, "Chrome trace");
    }
    if let Some(path) = report_out {
        let doc = topk_simjoin::runs_to_json(&reports);
        if let Err(e) = topk_simjoin::report::validate(&doc) {
            eprintln!("# internal error: run report fails validation: {e}");
            std::process::exit(1);
        }
        write_output(&path, &doc.render(), "run report");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn consistent_combinations_parse() {
        let o = parse_args(args(&["rs", "--right", "other.txt"])).expect("valid rs invocation");
        assert_eq!(o.ids, ["rs"]);
        assert_eq!(o.right.as_deref(), Some("other.txt"));

        let o = parse_args(args(&[
            "arrivals",
            "--arrivals",
            "s.txt",
            "--batch-size",
            "100",
        ]))
        .expect("valid arrivals invocation");
        assert_eq!(o.arrivals.as_deref(), Some("s.txt"));
        assert_eq!(o.batch_size, Some(100));

        let o =
            parse_args(args(&["arrivals", "--arrivals", "s.txt"])).expect("batch size is optional");
        assert_eq!(o.batch_size, None);

        let o = parse_args(args(&["fig6", "--live-port", "0"])).expect("valid live invocation");
        assert_eq!(o.endpoint_port, Some(0));
    }

    #[test]
    fn conflicting_operands_are_hard_errors() {
        let e = parse_args(args(&["rs", "--right", "a", "--arrivals", "b"]))
            .expect_err("right and arrivals conflict");
        assert!(e.contains("mutually exclusive"), "{e}");

        let e = parse_args(args(&["fig6", "--batch-size", "8"]))
            .expect_err("batch-size without arrivals");
        assert!(e.contains("--batch-size requires --arrivals"), "{e}");
    }

    #[test]
    fn missing_operands_are_hard_errors() {
        let e = parse_args(args(&["rs"])).expect_err("rs without --right");
        assert!(e.contains("requires --right"), "{e}");

        let e = parse_args(args(&["arrivals"])).expect_err("arrivals without --arrivals");
        assert!(e.contains("requires --arrivals"), "{e}");

        let e = parse_args(args(&["fig6", "--right", "a"])).expect_err("unconsumed --right");
        assert!(e.contains("only consumed by the rs experiment"), "{e}");

        let e = parse_args(args(&["fig6", "--arrivals", "a"])).expect_err("unconsumed --arrivals");
        assert!(
            e.contains("only consumed by the arrivals experiment"),
            "{e}"
        );
    }

    #[test]
    fn malformed_values_are_hard_errors() {
        assert!(parse_args(args(&["arrivals", "--arrivals", "s", "--batch-size", "0"])).is_err());
        assert!(parse_args(args(&["arrivals", "--arrivals", "s", "--batch-size", "x"])).is_err());
        assert!(parse_args(args(&["rs", "--right"])).is_err());
        assert!(parse_args(args(&["--bogus"])).is_err());
    }
}
