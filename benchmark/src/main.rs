//! One layered benchmark for the join engine, the R-S/arrival path and the
//! serving index. See `README.md` next to this package.
//!
//! ```text
//! topk-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//!                [--trace-out <file>] [--out <file>]
//! topk-benchmark compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]
//! ```
//!
//! A run generates its inputs from the seed, runs the workload, checks the
//! outputs, prints every metric by name with its unit, and ends its
//! standard output with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

mod batch;
mod client;
mod compare;
mod inputs;
mod layers;
mod num;
mod oracle;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Provenance;
use trace::Tracer;
use workloads::Kind;

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 18;

/// Directory (inside the checkout) for WAL and snapshot files.
const SCRATCH: &str = ".bench_tmp";

const USAGE: &str = "usage:
  topk-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--trace-out <file>] [--out <file>]
  topk-benchmark compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]";

struct RunArgs {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut trace_out = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
        out,
    })
}

/// Conditions under which a number would not mean what its name says.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    for var in ["MINISPARK_YIELD", "TOPK_SCALE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run with {var} set: it changes what is measured"
            ));
        }
    }
    Ok(())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    guard()?;
    let w = args.workload;
    let scratch = Path::new(SCRATCH).join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let provenance = Provenance {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        n: w.n,
        git_rev: report::git_rev(Path::new(".")),
        rustc: env!("BENCH_RUSTC_VERSION"),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        fs_type: report::fs_type(&scratch),
    };

    let tracer = Tracer::new(args.trace);
    let outcome = match w.kind {
        Kind::Batch(algo) => {
            batch::run_batch(w, algo, args.seed, args.seconds, args.trace, &tracer)
        }
        Kind::RsArrivals { arrivals, batch } => batch::run_rs(
            w,
            arrivals,
            batch,
            args.seed,
            args.seconds,
            args.trace,
            &tracer,
        ),
        Kind::Serve(mix) => serve::run(
            w,
            &mix,
            args.seed,
            args.seconds,
            &scratch,
            args.trace,
            &tracer,
        ),
    };

    // errors(scratch files are disposable; a leftover directory is ignored by git and reused names are cleared on open)
    let _ = std::fs::remove_dir_all(&scratch);
    // errors(only succeeds when no concurrent run still has a directory here)
    let _ = std::fs::remove_dir(SCRATCH);
    if let Some(path) = &args.trace_out {
        tracer
            .write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.out {
        report::append_out(path, &provenance, &outcome)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report::print_report(&provenance, &outcome);
    println!("{}", report::result_line(&outcome, args.trace));
    Ok(outcome.checks.failed == 0)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    compare::run(a, b, &spec).map(|regressed| !regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "compare" => compare(rest),
        Some(_) => parse_run(&args).and_then(|run_args| run(&run_args)),
        None => Err("no arguments".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
