//! `topk-cli` — command-line frontend for the similarity-join library.
//!
//! ```text
//! topk-cli generate <dblp|orku> <n> <k> <out.txt>     synthesize a corpus
//! topk-cli preprocess <corpus.txt> <k> <out.txt>      §7 preprocessing of a raw token corpus
//! topk-cli stats <data.txt>                           dataset + bound statistics
//! topk-cli join <data.txt> <theta> [options]          run a similarity join
//!   --algo <bf|vj|vj-nl|vj-p|cl|cl-p>   algorithm (default cl-p)
//!   --distance <footrule|jaccard>        distance measure (default footrule;
//!                                        jaccard supports bf, vj, vj-nl, cl, cl-p)
//!   --theta-c <x>                        clustering threshold θc (default 0.03)
//!   --delta <n>                          partitioning threshold δ (default n/150)
//!   --slots <n>                          task slots (default: host cores)
//!   --out <pairs.txt>                    write result pairs to a file
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Whether stdout has been closed by the reader (EPIPE). Once set, further
/// prints are silently skipped — but the command keeps running, so side
/// effects like `--out` files are still produced when the consumer stops
/// reading early (e.g. `topk-cli join … --out pairs.txt | head -1`).
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Prints a line to stdout, tolerating a closed pipe instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::sync::atomic::Ordering;
        // relaxed(flag): a sticky best-effort flag — a lagging read only
        // costs one extra failed write, so no cross-thread ordering is
        // needed.
        if !STDOUT_CLOSED.load(Ordering::Relaxed) {
            let mut stdout = std::io::stdout().lock();
            if writeln!(stdout, $($arg)*).is_err() {
                // relaxed(flag): same flag as above, set-once semantics — the
                // flag publishes nothing beyond itself.
                STDOUT_CLOSED.store(true, Ordering::Relaxed);
            }
        }
    }};
}

use minispark::{Cluster, ClusterConfig};
use topk_datagen::io::{read_rankings, write_rankings};
use topk_datagen::{load_corpus_file, CorpusProfile};
use topk_rankings::{BoundSummary, FrequencyTable, Ranking};
use topk_simjoin::{Algorithm, JoinConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  topk-cli generate <dblp|orku> <n> <k> <out.txt>\n  \
         topk-cli preprocess <corpus.txt> <k> <out.txt>\n  \
         topk-cli stats <data.txt>\n  \
         topk-cli join <data.txt> <theta> [--algo bf|vj|vj-nl|vj-p|cl|cl-p] \
         [--distance footrule|jaccard] [--theta-c x] [--delta n] [--slots n] [--out pairs.txt]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "preprocess" => cmd_preprocess(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "join" => cmd_join(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let [profile, n, k, out] = args else {
        return Err("generate needs: <dblp|orku> <n> <k> <out.txt>".into());
    };
    let n: usize = n.parse().map_err(|e| format!("bad n: {e}"))?;
    let k: usize = k.parse().map_err(|e| format!("bad k: {e}"))?;
    let profile = match profile.as_str() {
        "dblp" => CorpusProfile::dblp_like(n, k),
        "orku" => CorpusProfile::orku_like(n, k),
        other => return Err(format!("unknown profile '{other}' (dblp|orku)")),
    };
    let data = profile.generate();
    write_rankings(Path::new(out), &data).map_err(|e| e.to_string())?;
    out!("wrote {} rankings (k = {k}) to {out}", data.len());
    Ok(())
}

fn cmd_preprocess(args: &[String]) -> Result<(), String> {
    let [input, k, out] = args else {
        return Err("preprocess needs: <corpus.txt> <k> <out.txt>".into());
    };
    let k: usize = k.parse().map_err(|e| format!("bad k: {e}"))?;
    let (rankings, stats) = load_corpus_file(Path::new(input), k).map_err(|e| e.to_string())?;
    write_rankings(Path::new(out), &rankings).map_err(|e| e.to_string())?;
    out!(
        "read {} records: {} duplicates, {} too short, {} with repeated tokens → {} top-{k} rankings",
        stats.records_read,
        stats.duplicates_dropped,
        stats.too_short_dropped,
        stats.repeated_token_dropped,
        stats.rankings_produced
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("stats needs: <data.txt>".into());
    };
    let data = read_rankings(Path::new(input)).map_err(|e| e.to_string())?;
    if data.is_empty() {
        out!("empty dataset");
        return Ok(());
    }
    let freq = FrequencyTable::from_rankings(&data);
    let lengths: std::collections::BTreeSet<usize> = data.iter().map(Ranking::k).collect();
    out!("rankings:        {}", data.len());
    out!("lengths k:       {lengths:?}");
    out!("distinct items:  {}", freq.distinct_items());
    let rel = freq.relative_frequencies();
    out!(
        "token skew:      hottest {:.4}, median {:.6}",
        rel[0],
        rel[rel.len() / 2]
    );
    if lengths.len() == 1 {
        let k = *lengths.iter().next().expect("non-empty");
        out!("\nbounds for the evaluation thresholds:");
        out!("  θ     raw   ω    prefix p   ordered p_o   max rank diff");
        for theta in [0.1, 0.2, 0.3, 0.4] {
            let b = BoundSummary::new(k, theta);
            out!(
                "  {theta:<5} {:<5} {:<4} {:<10} {:<13} {}",
                b.theta_raw,
                b.min_overlap,
                b.overlap_prefix,
                b.ordered_prefix.map_or("—".to_string(), |p| p.to_string()),
                b.max_rank_diff
            );
        }
    }
    Ok(())
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    if args.len() < 2 {
        return Err("join needs: <data.txt> <theta> [options]".into());
    }
    let input = &args[0];
    let theta: f64 = args[1].parse().map_err(|e| format!("bad θ: {e}"))?;
    let mut algo = Algorithm::ClP;
    let mut algo_name: Option<String> = None;
    let mut distance = String::from("footrule");
    let mut theta_c = 0.03;
    let mut delta = None;
    let mut slots = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut out: Option<PathBuf> = None;

    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--algo" => {
                let name = value()?;
                algo = match name.as_str() {
                    "bf" => Algorithm::BruteForce,
                    "vj" => Algorithm::Vj,
                    "vj-nl" => Algorithm::VjNl,
                    "vj-p" => Algorithm::VjRepartitioned,
                    "cl" => Algorithm::Cl,
                    "cl-p" => Algorithm::ClP,
                    other => return Err(format!("unknown algorithm '{other}'")),
                };
                algo_name = Some(name);
            }
            "--distance" => {
                distance = value()?;
                if !matches!(distance.as_str(), "footrule" | "jaccard") {
                    return Err(format!("unknown distance '{distance}' (footrule|jaccard)"));
                }
            }
            "--theta-c" => theta_c = value()?.parse().map_err(|e| format!("bad θc: {e}"))?,
            "--delta" => delta = Some(value()?.parse().map_err(|e| format!("bad δ: {e}"))?),
            "--slots" => slots = value()?.parse().map_err(|e| format!("bad slots: {e}"))?,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let data = read_rankings(Path::new(input)).map_err(|e| e.to_string())?;
    let delta = delta.unwrap_or_else(|| (data.len() / 150).max(25));
    let cluster =
        Cluster::new(ClusterConfig::local(slots).with_default_partitions(4 * slots.max(4)));

    let outcome = if distance == "jaccard" {
        let config = topk_simjoin::JaccardConfig::new(theta).with_cluster_threshold(theta_c);
        match algo_name.as_deref() {
            Some("cl") => topk_simjoin::jaccard_cl_join(&cluster, &data, &config),
            None | Some("cl-p") => {
                let config = config.with_partition_threshold(delta);
                topk_simjoin::jaccard_clp_join(&cluster, &data, &config)
            }
            Some("vj") | Some("vj-nl") => topk_simjoin::jaccard_vj_join(&cluster, &data, &config),
            Some("bf") => topk_simjoin::jaccard_brute_force(&cluster, &data, theta),
            Some(other) => {
                return Err(format!(
                    "algorithm '{other}' is not available for the jaccard distance \
                     (use bf, vj, vj-nl, cl or cl-p)"
                ))
            }
        }
        .map_err(|e| e.to_string())?
    } else {
        let config = JoinConfig::new(theta)
            .with_cluster_threshold(theta_c)
            .with_partition_threshold(delta);
        algo.run(&cluster, &data, &config)
            .map_err(|e| e.to_string())?
    };
    out!(
        "{} ({distance}): {} pairs over {} rankings in {:.2}s",
        algo.name(),
        outcome.pairs.len(),
        data.len(),
        outcome.elapsed.as_secs_f64()
    );
    out!("stats: {}", outcome.stats);
    if let Some(path) = out {
        use std::io::Write as _;
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        for (a, b) in &outcome.pairs {
            writeln!(file, "{a} {b}").map_err(|e| e.to_string())?;
        }
        out!("wrote pairs to {}", path.display());
    }
    Ok(())
}
