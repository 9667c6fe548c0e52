//! `compare <a.jsonl> <b.jsonl>`: per (workload, metric), the relative
//! difference of B's median against A's, judged by the bound that
//! `BENCHMARK.json` fixes. Inputs are the files `--out` appends to.

use std::collections::BTreeMap;
use std::path::Path;

use crate::layers::Json;
use crate::stats::{median, spread};

/// `(workload, metric)` → the values of every run in a file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Direction and bound of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether larger is better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every run of B reads better than every run of A.
    Better,
    /// Run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// Worse than A by more than the bound.
    Regressed,
    /// A per-layer metric: no bound applies.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unbounded => "-",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative =
/// better), and the verdict under `rule`.
pub fn judge(a: &[f64], b: &[f64], rule: Option<Rule>) -> (f64, Verdict) {
    let (a_med, b_med) = (median(a), median(b));
    let change = if a_med == 0.0 {
        0.0
    } else {
        (b_med - a_med) / a_med.abs()
    };
    let Some(rule) = rule else {
        return (change, Verdict::Unbounded);
    };
    let worse_by = if rule.higher_is_better {
        -change
    } else {
        change
    };
    let fold = |values: &[f64], pick: fn(f64, f64) -> f64, start: f64| {
        values.iter().copied().fold(start, pick)
    };
    let all_better = if rule.higher_is_better {
        fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY)
    } else {
        fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY)
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if all_better {
        Verdict::Better
    } else if widest > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), number + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no \"workload\""))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no \"metrics\""))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("a metric without a numeric \"value\""))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

fn load_rules(spec: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let mut rules = BTreeMap::new();
    for metric in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(name), Some(better), Some(bound)) = (
            metric.get("name").and_then(Json::as_str),
            metric.get("better").and_then(Json::as_str),
            metric.get("bound").and_then(Json::as_f64),
        ) else {
            return Err(format!("{}: malformed end_to_end entry", spec.display()));
        };
        rules.insert(
            name.to_string(),
            Rule {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(rules)
}

/// Prints one row per (workload, metric) present in both files; returns
/// whether any end-to-end metric regressed beyond its bound.
pub fn run(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let rules = load_rules(spec)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "{:<12} {:<38} {:>4} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "runs", "A median", "B median", "worse by", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for ((workload, metric), values_a) in &runs_a {
        let Some(values_b) = runs_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let rule = rules.get(metric).copied();
        let (worse_by, verdict) = judge(values_a, values_b, rule);
        regressed += usize::from(verdict == Verdict::Regressed);
        unresolved += usize::from(verdict == Verdict::Unresolved);
        println!(
            "{workload:<12} {metric:<38} {:>4} {:>14.4} {:>14.4} {:>+8.1}% {:>6}  {}",
            values_a.len().min(values_b.len()),
            median(values_a),
            median(values_b),
            worse_by * 100.0,
            rule.map_or_else(|| "-".to_string(), |r| format!("{:.2}", r.bound)),
            verdict.label()
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Option<Rule> = Some(Rule {
        higher_is_better: false,
        bound: 0.10,
    });
    const HIGHER: Option<Rule> = Some(Rule {
        higher_is_better: true,
        bound: 0.10,
    });

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&a, &[104.0, 105.0, 100.5, 104.0], LOWER).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.5, 120.0], LOWER).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[90.0, 91.0, 92.0, 90.0], LOWER).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0], HIGHER).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 80.5, 80.0], HIGHER).1,
            Verdict::Regressed
        );
        // B's own spread is wider than the bound: the runs cannot tell.
        assert_eq!(
            judge(&a, &[60.0, 150.0, 100.0, 140.0], LOWER).1,
            Verdict::Unresolved
        );
        let (change, verdict) = judge(&a, &[150.0], None);
        assert_eq!(verdict, Verdict::Unbounded);
        assert!((change - 0.5).abs() < 1e-12);
    }

    #[test]
    fn files_round_trip_through_compare() {
        let dir =
            std::env::temp_dir().join(format!("topk-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let line = |v: f64| {
            format!("{{\"workload\":\"w\",\"metrics\":{{\"latency_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n")
        };
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .expect("write spec");
        let (a, b, c) = (
            dir.join("a.jsonl"),
            dir.join("b.jsonl"),
            dir.join("c.jsonl"),
        );
        std::fs::write(&a, line(10.0) + &line(10.2)).expect("write a");
        std::fs::write(&b, line(10.3) + &line(10.1)).expect("write b");
        std::fs::write(&c, line(13.0) + &line(13.2)).expect("write c");
        assert_eq!(run(&a, &b, &spec), Ok(false));
        assert_eq!(run(&a, &c, &spec), Ok(true));
        assert!(run(&a, &dir.join("missing.jsonl"), &spec).is_err());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
