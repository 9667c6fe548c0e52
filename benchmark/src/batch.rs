//! The batch and R-S workloads.
//!
//! Protocol: set-up (generation, repeated for a steady `setup_s`), one
//! discarded warm-up join, then timed joins — each on a fresh cluster —
//! until `--seconds` have passed (at least [`MIN_TIMED`]); the fastest is
//! reported (see [`fastest`] for why not the median). The traced pass
//! replays the driver's dataflow one public call per span (see `layers`).

use std::time::{Duration, Instant};

use crate::inputs::{self, mix, SetupReps, SplitMix};
use crate::layers::{self, Algo, JoinOutcome, Pairs, Ranking, Staged, SLOTS};
use crate::num::{f, fz, n64, ratio};
use crate::oracle::{self, Checks};
use crate::probes;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{fastest, median, percentile, sorted};
use crate::trace::{child_total_ns, Tracer};
use crate::workloads::{Kind, Workload};

/// Timed joins per run, at least.
const MIN_TIMED: usize = 5;
/// Ids whose partners are checked against a full scan.
const ORACLE_IDS: usize = 200;
/// Timed joins of the untraced reference in a `--trace 1` run.
const TRACE_REFERENCE_JOINS: usize = 3;
/// Staged (traced) joins in a `--trace 1` run; the spans of the fastest are
/// reported.
const TRACE_STAGED_JOINS: usize = 3;

struct Inputs {
    corpus: Vec<Ranking>,
    arrivals: Vec<Ranking>,
    setup_s: Vec<f64>,
}

/// Generates the inputs; `repeat` does it again and again (see
/// [`SetupReps`]) so that the fastest set-up is a steady `setup_s`.
fn set_up(w: &Workload, seed: u64, repeat: bool) -> Inputs {
    let mut inputs = Inputs {
        corpus: Vec::new(),
        arrivals: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut reps = SetupReps::new(repeat);
    while reps.again() {
        let start = Instant::now();
        inputs.corpus = inputs::corpus(w.profile, w.n, seed);
        if let Kind::RsArrivals { arrivals, .. } = w.kind {
            inputs.arrivals = inputs::arrivals(w.profile, &inputs.corpus, arrivals, seed);
        }
        inputs.setup_s.push(start.elapsed().as_secs_f64());
    }
    inputs
}

/// `count` distinct seed-chosen ids out of `ids`.
fn sample_ids(ids: &[u64], count: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(mix(seed, 5));
    let mut pool = ids.to_vec();
    let take = count.min(pool.len());
    for i in 0..take {
        let j = i + rng.index(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

fn timed<R>(work: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed())
}

/// Runs timed iterations until `seconds` have passed and `at_least` are in.
fn repeat_for(seconds: u64, at_least: usize, mut iteration: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut done = 0;
    while done < at_least || Instant::now() < deadline {
        iteration();
        done += 1;
    }
}

fn check_join(checks: &mut Checks, what: &str, outcome: &JoinOutcome, reference: &Pairs) {
    checks.check(outcome.pairs == *reference, || {
        format!(
            "{what}: {} pairs differ from the warm-up join's {}",
            outcome.pairs.len(),
            reference.len()
        )
    });
}

fn wall_metrics(out: &mut Outcome, walls_s: &[f64], work_per_join: usize) {
    let ascending = sorted(walls_s.to_vec());
    let wall = fastest(walls_s);
    out.set("latency_ms", wall * 1e3, walls_s.len());
    out.detail("join_wall_s", wall, "s", walls_s.len());
    out.detail("join_wall_median_s", median(walls_s), "s", walls_s.len());
    // A run times a dozen joins: too few for a percentile beyond the upper
    // quartile to mean anything.
    out.detail(
        "join_wall_p75_s",
        percentile(&ascending, 0.75),
        "s",
        walls_s.len(),
    );
    out.detail(
        "join_wall_max_s",
        ascending[ascending.len() - 1],
        "s",
        walls_s.len(),
    );
    out.detail(
        "join_records_per_s",
        ratio(fz(work_per_join), wall),
        "1/s",
        walls_s.len(),
    );
}

/// The `--trace 0` run of a batch self-join workload.
fn measure_batch(w: &Workload, algo: Algo, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = set_up(w, seed, true);
    out.input_checksum = inputs::checksum(&inputs.corpus);
    let data = &inputs.corpus;

    let reference = layers::join(algo, data, w.theta, w.slots).pairs;
    // Peak memory of set-up plus one join on a fresh process; later
    // repetitions only add allocator drift.
    let rss = peak_rss_mb();
    let mut walls = Vec::new();
    repeat_for(seconds, MIN_TIMED, || {
        let (outcome, wall) = timed(|| layers::join(algo, data, w.theta, w.slots));
        walls.push(wall.as_secs_f64());
        check_join(&mut out.checks, w.name, &outcome, &reference);
    });

    out.checks.check(oracle::strictly_sorted(&reference), || {
        "pairs are not strictly sorted".to_string()
    });
    let ids: Vec<u64> = data.iter().map(Ranking::id).collect();
    let sample = sample_ids(&ids, ORACLE_IDS, seed);
    let bad = oracle::self_join_mismatches(
        data,
        &reference,
        &sample,
        oracle::raw_threshold(layers::K, w.theta),
    );
    out.checks
        .add(n64(sample.len()), bad, "brute-force id checks");
    if w.name == "vj-dense" {
        let nl = layers::join(Algo::VjNl, data, w.theta, w.slots);
        out.checks.check(nl.pairs.len() == reference.len(), || {
            format!(
                "vj_nl_join found {} pairs, vj_join {}",
                nl.pairs.len(),
                reference.len()
            )
        });
    }

    wall_metrics(&mut out, &walls, data.len());
    out.set(
        "throughput_per_s",
        ratio(fz(data.len()), fastest(&walls)),
        walls.len(),
    );
    out.set("peak_rss_mb", rss, 0);
    out.set("setup_s", fastest(&inputs.setup_s), inputs.setup_s.len());
    out.detail("result_pairs", fz(reference.len()), "count", 0);
    out
}

/// One R-S iteration: the one-shot join, then the arrival stream.
struct RsIteration {
    join: JoinOutcome,
    join_wall_s: f64,
    streamed: Pairs,
    stream_wall_s: f64,
    batch_us: Vec<f64>,
}

fn rs_iteration(
    tracer: &Tracer,
    run_id: u64,
    (corpus, arrivals): (&[Ranking], &[Ranking]),
    w: &Workload,
    batch: usize,
) -> RsIteration {
    let theta = w.theta;
    let (join, join_wall) = timed(|| {
        tracer.span("vj.vj_join_rs", None, run_id, |_| {
            layers::join_rs(corpus, arrivals, theta, w.slots)
        })
    });
    let mut standing = tracer.span("arrivals.new", None, run_id, |_| {
        layers::arrival_join(corpus, theta)
    });
    let mut streamed = Pairs::new();
    let mut batch_us = Vec::with_capacity(arrivals.len() / batch + 1);
    let stream_start = Instant::now();
    for chunk in arrivals.chunks(batch) {
        let (outcome, took) = timed(|| {
            tracer.span("arrivals.join_arrivals", None, run_id, |_| {
                standing
                    .join_arrivals(chunk)
                    .expect("arrival ids are fresh and lengths uniform")
            })
        });
        batch_us.push(took.as_secs_f64() * 1e6);
        streamed.extend(outcome.pairs);
    }
    let stream_wall_s = stream_start.elapsed().as_secs_f64();
    streamed.sort_unstable();
    RsIteration {
        join,
        join_wall_s: join_wall.as_secs_f64(),
        streamed,
        stream_wall_s,
        batch_us,
    }
}

/// Streamed pairs restricted to corpus × arrivals must equal the one-shot
/// R-S join; 200 arrivals' partners must equal a scan of corpus ∪ arrivals.
fn check_rs(
    checks: &mut Checks,
    it: &RsIteration,
    corpus: &[Ranking],
    arrivals: &[Ranking],
    theta: f64,
    seed: u64,
) {
    let first_arrival = n64(corpus.len());
    checks.check(oracle::strictly_sorted(&it.join.pairs), || {
        "vj_join_rs pairs are not strictly sorted".to_string()
    });
    checks.check(oracle::strictly_sorted(&it.streamed), || {
        "streamed pairs are not strictly sorted".to_string()
    });
    let cross: Pairs = it
        .streamed
        .iter()
        .copied()
        .filter(|&(a, _)| a < first_arrival)
        .collect();
    checks.check(cross == it.join.pairs, || {
        format!(
            "streamed corpus×arrival pairs ({}) differ from vj_join_rs ({})",
            cross.len(),
            it.join.pairs.len()
        )
    });
    let ids: Vec<u64> = arrivals.iter().map(Ranking::id).collect();
    let sample = sample_ids(&ids, ORACLE_IDS, seed);
    let union: Vec<Ranking> = corpus.iter().chain(arrivals).cloned().collect();
    let bad = oracle::self_join_mismatches(
        &union,
        &it.streamed,
        &sample,
        oracle::raw_threshold(layers::K, theta),
    );
    checks.add(n64(sample.len()), bad, "brute-force arrival checks");
}

/// The `--trace 0` run of `rs-arrivals`.
fn measure_rs(w: &Workload, arrivals_n: usize, batch: usize, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = set_up(w, seed, true);
    out.input_checksum = inputs::checksum(&inputs.corpus) ^ inputs::checksum(&inputs.arrivals);
    let (corpus, arrivals) = (&inputs.corpus, &inputs.arrivals);
    let off = Tracer::new(false);

    let warm = rs_iteration(&off, 0, (corpus, arrivals), w, batch);
    let rss = peak_rss_mb();
    let mut join_walls = Vec::new();
    let mut stream_walls = Vec::new();
    let mut batch_us = Vec::new();
    repeat_for(seconds, MIN_TIMED, || {
        let it = rs_iteration(&off, 0, (corpus, arrivals), w, batch);
        join_walls.push(it.join_wall_s);
        stream_walls.push(it.stream_wall_s);
        batch_us.extend(it.batch_us);
        check_join(&mut out.checks, "vj_join_rs", &it.join, &warm.join.pairs);
        out.checks.check(it.streamed == warm.streamed, || {
            "the arrival stream's pairs changed between iterations".to_string()
        });
    });
    check_rs(&mut out.checks, &warm, corpus, arrivals, w.theta, seed);

    wall_metrics(&mut out, &join_walls, corpus.len() + arrivals_n);
    let stream_rate = ratio(fz(arrivals_n), fastest(&stream_walls));
    out.set("throughput_per_s", stream_rate, stream_walls.len());
    out.set("peak_rss_mb", rss, 0);
    out.set("setup_s", fastest(&inputs.setup_s), inputs.setup_s.len());
    out.detail(
        "stream_records_per_s",
        stream_rate,
        "1/s",
        stream_walls.len(),
    );
    let batch_us = sorted(batch_us);
    out.detail(
        "arrival_batch_p50_us",
        percentile(&batch_us, 0.5),
        "us",
        batch_us.len(),
    );
    out.detail(
        "arrival_batch_p99_us",
        percentile(&batch_us, 0.99),
        "us",
        batch_us.len(),
    );
    out.detail("rs_pairs", fz(warm.join.pairs.len()), "count", 0);
    out.detail("streamed_pairs", fz(warm.streamed.len()), "count", 0);
    out
}

/// The root span of the fastest staged run.
fn fastest_root(tracer: &Tracer, staged: &[Staged]) -> Option<usize> {
    let spans = tracer.spans();
    staged
        .iter()
        .filter_map(|s| s.root)
        .min_by_key(|&root| spans[root].duration_ns())
}

/// The direct child span `name` of the fastest staged run, seconds.
fn span_s(tracer: &Tracer, staged: &[Staged], name: &str) -> f64 {
    fastest_root(tracer, staged).map_or(0.0, |root| {
        f(child_total_ns(&tracer.spans(), root, name)) / 1e9
    })
}

/// Root-span length and Σ of direct children of the fastest staged run,
/// seconds.
fn run_and_children_s(tracer: &Tracer, staged: &[Staged]) -> (f64, f64) {
    let spans = tracer.spans();
    fastest_root(tracer, staged).map_or((0.0, 0.0), |root| {
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(crate::trace::Span::duration_ns)
            .sum();
        (f(spans[root].duration_ns()) / 1e9, f(children) / 1e9)
    })
}

/// The `--trace 1` run of a batch self-join workload.
fn trace_batch(w: &Workload, algo: Algo, seed: u64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = set_up(w, seed, false);
    out.input_checksum = inputs::checksum(&inputs.corpus);
    let data = &inputs.corpus;

    // Untraced reference: the driver itself, tracing off.
    let reference = layers::join(algo, data, w.theta, w.slots);
    let walls_on = |slots: usize| -> Vec<f64> {
        (0..TRACE_REFERENCE_JOINS)
            .map(|_| timed(|| layers::join(algo, data, w.theta, slots)).1)
            .map(|wall| wall.as_secs_f64())
            .collect()
    };
    let walls = walls_on(w.slots);
    let untraced_wall = fastest(&walls);
    let other_slots = if w.slots == 1 { SLOTS } else { 1 };
    let other_wall = fastest(&walls_on(other_slots));
    let (one_slot, two_slots) = if w.slots == 1 {
        (untraced_wall, other_wall)
    } else {
        (other_wall, untraced_wall)
    };
    out.set(
        "minispark.two_slot_speedup",
        ratio(one_slot, two_slots),
        2 * TRACE_REFERENCE_JOINS,
    );
    out.detail("join_wall_one_slot_s", one_slot, "s", TRACE_REFERENCE_JOINS);
    out.detail(
        "join_wall_two_slots_s",
        two_slots,
        "s",
        TRACE_REFERENCE_JOINS,
    );

    // Traced pass: the same dataflow, one public call per span.
    let staged: Vec<Staged> = (0..TRACE_STAGED_JOINS)
        .map(|run| match algo {
            Algo::Clp => layers::clp_staged(tracer, n64(run), data, w.theta, w.slots),
            Algo::Vj | Algo::VjNl => layers::vj_staged(tracer, n64(run), data, w.theta, w.slots),
        })
        .collect();
    for s in &staged {
        out.checks.check(s.pairs == reference.pairs, || {
            format!(
                "staged join found {} pairs, the driver {}",
                s.pairs.len(),
                reference.pairs.len()
            )
        });
    }
    let last = staged.last().expect("at least one staged join");
    let counts = &last.counts;
    let stats = &counts.stats;

    out.set(
        "pipeline.ordering_s",
        span_s(tracer, &staged, "pipeline.order_rankings"),
        staged.len(),
    );
    out.set(
        "minispark.shuffle_bytes_per_record",
        counts.shuffle_bytes_per_record,
        0,
    );
    out.set(
        "minispark.max_partition_share",
        counts.max_partition_share,
        0,
    );
    probes::kernel_ratios(&mut out, stats);
    if algo == Algo::Clp {
        out.set(
            "clustering.clustering_s",
            span_s(tracer, &staged, "clustering.clustering_phase"),
            staged.len(),
        );
        out.set("clustering.clustered_share", counts.clustered_share, 0);
        out.set(
            "centroid_join.joining_s",
            span_s(tracer, &staged, "centroid_join.centroid_join"),
            staged.len(),
        );
        out.set(
            "expansion.expansion_s",
            span_s(tracer, &staged, "expansion.expansion"),
            staged.len(),
        );
        out.set(
            "expansion.triangle_decided_share",
            counts.triangle_decided_share,
            0,
        );
    } else {
        let indexed_s = span_s(tracer, &staged, "kernels.join_group_indexed");
        out.set(
            "pipeline.emit_prefixes_s",
            span_s(tracer, &staged, "pipeline.emit_prefixes"),
            staged.len(),
        );
        out.set(
            "pipeline.prefix_tokens_per_record",
            counts.prefix_tokens_per_record,
            0,
        );
        out.set(
            "minispark.group_by_key_s",
            span_s(tracer, &staged, "minispark.group_by_key"),
            staged.len(),
        );
        out.set(
            "minispark.reduce_by_key_s",
            span_s(tracer, &staged, "minispark.reduce_by_key"),
            staged.len(),
        );
        out.set("kernels.indexed_s", indexed_s, staged.len());
        out.set(
            "kernels.ns_per_candidate",
            ratio(indexed_s * 1e9, f(stats.candidates)),
            0,
        );
        out.set("kernels.max_group_len", counts.max_group_len, 0);
        let (nl_results, nl_wall) =
            timed(|| layers::nested_loop_over(tracer, n64(staged.len()), last, w.theta));
        out.set("kernels.nested_loop_s", nl_wall.as_secs_f64(), 1);
        out.detail("nested_loop_results", fz(nl_results), "count", 0);
    }

    probes::rankings(&mut out, tracer, data, w.theta);

    let (traced_run, children) = run_and_children_s(tracer, &staged);
    out.set(
        "layers.coverage",
        ratio(children, untraced_wall),
        staged.len(),
    );
    out.set(
        "trace_overhead_pct",
        (ratio(traced_run, untraced_wall) - 1.0) * 100.0,
        staged.len(),
    );
    out.detail("join_wall_s", untraced_wall, "s", walls.len());
    out.detail("staged_join_wall_s", traced_run, "s", staged.len());
    out.detail("candidates", f(stats.candidates), "count", 0);
    out
}

/// The `--trace 1` run of `rs-arrivals`.
fn trace_rs(w: &Workload, batch: usize, seed: u64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = set_up(w, seed, false);
    out.input_checksum = inputs::checksum(&inputs.corpus) ^ inputs::checksum(&inputs.arrivals);
    let (corpus, arrivals) = (&inputs.corpus, &inputs.arrivals);

    let off = Tracer::new(false);
    let untraced = rs_iteration(&off, 0, (corpus, arrivals), w, batch);
    let traced = rs_iteration(tracer, 1, (corpus, arrivals), w, batch);
    out.checks.check(traced.streamed == untraced.streamed, || {
        "the traced arrival stream's pairs differ from the untraced".to_string()
    });
    check_join(
        &mut out.checks,
        "traced vj_join_rs",
        &traced.join,
        &untraced.join.pairs,
    );

    let stats = &traced.join.stats;
    probes::kernel_ratios(&mut out, stats);
    let batch_us = sorted(traced.batch_us.clone());
    out.set(
        "arrivals.batch_us",
        percentile(&batch_us, 0.5),
        batch_us.len(),
    );
    probes::index(&mut out, tracer, corpus, w.theta, w.theta, seed);
    probes::rankings(&mut out, tracer, corpus, w.theta);

    let fastest_on = |slots: usize| -> f64 {
        let walls: Vec<f64> = (0..TRACE_REFERENCE_JOINS)
            .map(|_| timed(|| layers::join_rs(corpus, arrivals, w.theta, slots)).1)
            .map(|wall| wall.as_secs_f64())
            .collect();
        fastest(&walls)
    };
    let (one_slot, two_slots) = (fastest_on(1), fastest_on(SLOTS));
    out.set(
        "minispark.two_slot_speedup",
        ratio(one_slot, two_slots),
        2 * TRACE_REFERENCE_JOINS,
    );
    out.detail("join_wall_one_slot_s", one_slot, "s", TRACE_REFERENCE_JOINS);
    out.detail(
        "join_wall_two_slots_s",
        two_slots,
        "s",
        TRACE_REFERENCE_JOINS,
    );

    let untraced_total = untraced.join_wall_s + untraced.stream_wall_s;
    let traced_total = traced.join_wall_s + traced.stream_wall_s;
    out.set("layers.coverage", ratio(traced_total, untraced_total), 1);
    out.set(
        "trace_overhead_pct",
        (ratio(traced_total, untraced_total) - 1.0) * 100.0,
        1,
    );
    out.detail("join_wall_s", untraced.join_wall_s, "s", 1);
    out.detail("stream_wall_s", untraced.stream_wall_s, "s", 1);
    out
}

/// Runs a batch self-join workload.
pub fn run_batch(
    w: &Workload,
    algo: Algo,
    seed: u64,
    seconds: u64,
    trace: bool,
    tracer: &Tracer,
) -> Outcome {
    if trace {
        trace_batch(w, algo, seed, tracer)
    } else {
        measure_batch(w, algo, seed, seconds)
    }
}

/// Runs the R-S + arrivals workload.
pub fn run_rs(
    w: &Workload,
    arrivals: usize,
    batch: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
    tracer: &Tracer,
) -> Outcome {
    if trace {
        trace_rs(w, batch, seed, tracer)
    } else {
        measure_rs(w, arrivals, batch, seed, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Profile;

    fn tiny(kind: Kind, theta: f64) -> Workload {
        Workload {
            name: "tiny",
            profile: Profile::Orku,
            n: 600,
            theta,
            slots: SLOTS,
            kind,
        }
    }

    #[test]
    fn same_seed_repeats_checksum_pairs_and_filter_counts() {
        let w = tiny(Kind::Batch(Algo::Vj), 0.3);
        let a = set_up(&w, 21, false);
        let b = set_up(&w, 21, false);
        let c = set_up(&w, 22, false);
        assert_eq!(inputs::checksum(&a.corpus), inputs::checksum(&b.corpus));
        assert_ne!(inputs::checksum(&a.corpus), inputs::checksum(&c.corpus));
        let ja = layers::join(Algo::Vj, &a.corpus, w.theta, w.slots);
        let jb = layers::join(Algo::Vj, &b.corpus, w.theta, 1);
        assert!(!ja.pairs.is_empty());
        assert_eq!(ja.pairs, jb.pairs);
        assert_eq!(ja.stats.candidates, jb.stats.candidates);
        assert_eq!(ja.stats.verified, jb.stats.verified);
    }

    #[test]
    fn every_driver_passes_the_oracle_on_a_tiny_corpus() {
        for algo in [Algo::Vj, Algo::Clp] {
            let out = measure_batch(&tiny(Kind::Batch(algo), 0.3), algo, 3, 0);
            assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
            assert!(out.checks.attempted > n64(ORACLE_IDS));
            for (name, _) in crate::report::END_TO_END {
                assert!(out.get(name).is_some_and(|v| v > 0.0), "{name}");
            }
        }
    }

    #[test]
    fn staged_joins_equal_the_drivers_and_cover_them() {
        for algo in [Algo::Vj, Algo::Clp] {
            let tracer = Tracer::new(true);
            let out = trace_batch(&tiny(Kind::Batch(algo), 0.3), algo, 3, &tracer);
            assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
            assert!(out.get("layers.coverage").is_some_and(|c| c > 0.0));
            assert!(out.get("pipeline.ordering_s").is_some_and(|s| s > 0.0));
            assert!(!tracer.spans().is_empty());
        }
    }

    #[test]
    fn the_arrival_stream_equals_the_one_shot_join() {
        let kind = Kind::RsArrivals {
            arrivals: 120,
            batch: 16,
        };
        let out = measure_rs(&tiny(kind, 0.3), 120, 16, 4, 0);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
        let tracer = Tracer::new(true);
        let traced = trace_rs(&tiny(kind, 0.3), 16, 4, &tracer);
        assert_eq!(traced.checks.failed, 0, "{:?}", traced.checks.messages);
        assert!(traced.get("arrivals.batch_us").is_some_and(|us| us > 0.0));
        assert!(traced.get("index.build_s").is_some_and(|s| s > 0.0));
    }

    #[test]
    fn sampled_ids_are_distinct_and_seeded() {
        let ids: Vec<u64> = (0..50).collect();
        let a = sample_ids(&ids, 20, 1);
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 20);
        assert_eq!(a, sample_ids(&ids, 20, 1));
        assert_ne!(a, sample_ids(&ids, 20, 2));
        assert_eq!(sample_ids(&ids, 80, 1).len(), 50);
    }
}
