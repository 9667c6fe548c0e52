//! One runner per table/figure of the paper's evaluation (§7).
//!
//! Every runner reproduces the corresponding sweep — same series, same
//! parameter grids (thresholds, θc, δ ranges, node counts, partition
//! counts), scaled workloads — and returns the measured [`Row`]s.
//! `EXPERIMENTS.md` records one full run next to the paper's findings.

use minispark::{Cluster, ClusterConfig};
use topk_rankings::{PrefixKind, Ranking};
use topk_simjoin::{Algorithm, JoinConfig};

use crate::datasets::{self, Workload};
use crate::report::Row;

/// The θ grid of the evaluation (x-axis of Figures 6, 7 and 11).
pub const THETAS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

/// The paper's fixed clustering threshold (§7.1: "in all cases, the
/// clustering threshold for the CL and CL-P algorithms is set to 0.03").
pub const THETA_C: f64 = 0.03;

/// Executes one algorithm run and captures a [`Row`]. The simulated wall
/// time is computed for the execution cluster's own slot count.
pub fn measure(
    figure: &'static str,
    cluster_config: ClusterConfig,
    workload: &Workload,
    algorithm: Algorithm,
    config: &JoinConfig,
) -> Row {
    let slots = cluster_config.task_slots();
    let nodes = cluster_config.nodes;
    measure_with_sim_slots(
        figure,
        cluster_config,
        slots,
        nodes,
        workload,
        algorithm,
        config,
    )
}

/// Like [`measure`], but simulates the wall time for `sim_slots` concurrent
/// cores while *executing* on `exec_config`.
///
/// This decouples measurement from simulation: on hosts with few physical
/// cores, executing with many threads would contend and pollute the
/// per-task timings, so scalability sweeps (Figure 7) execute with the
/// host's real parallelism and replay the measured task durations through
/// the LPT schedule of the simulated cluster.
#[allow(clippy::too_many_arguments)]
pub fn measure_with_sim_slots(
    figure: &'static str,
    exec_config: ClusterConfig,
    sim_slots: usize,
    nodes: usize,
    workload: &Workload,
    algorithm: Algorithm,
    config: &JoinConfig,
) -> Row {
    let capture = crate::capture::Capture::active();
    let cluster = match capture {
        Some(cap) => cap.cluster(exec_config.clone()),
        None => Cluster::new(exec_config.clone()),
    };
    let run_span = cluster.trace().span(format!(
        "run/{figure}/{}/{}@{}",
        workload.name,
        algorithm.name(),
        config.theta
    ));
    let outcome = algorithm
        .run(&cluster, &workload.data, config)
        .expect("benchmark join failed");
    drop(run_span);
    let sim = cluster.metrics().simulated_total(sim_slots);
    if let Some(cap) = capture {
        cap.push(topk_simjoin::RunReport::capture(
            algorithm.name(),
            &workload.name,
            workload.data.len(),
            &cluster,
            config,
            &outcome,
            sim_slots,
        ));
    }
    Row {
        figure,
        dataset: workload.name.clone(),
        algorithm: algorithm.name(),
        theta: config.theta,
        theta_c: config.cluster_threshold,
        delta: config.partition_threshold,
        partitions: config.effective_partitions(exec_config.default_partitions),
        nodes,
        k: workload.k(),
        n: workload.data.len(),
        seconds: outcome.elapsed.as_secs_f64(),
        sim_seconds: sim.as_secs_f64(),
        pairs: outcome.pairs.len(),
        stats: outcome.stats,
    }
}

/// Execution config: the host's real parallelism (clean per-task timings).
fn harness_exec() -> ClusterConfig {
    let slots = std::thread::available_parallelism().map_or(8, std::num::NonZero::get);
    // 286 reduce partitions, like the paper's runs.
    ClusterConfig::local(slots).with_default_partitions(286)
}

/// All figures except the scalability sweep report `sim_seconds` for the
/// paper's Table-3 cluster (8 nodes × 24 executors × 5 cores = 120 slots):
/// tasks are timed for real on the host, their overlap is simulated (LPT).
fn paper_sim_slots() -> usize {
    ClusterConfig::paper_table3().task_slots()
}

/// The standard figure measurement: execute on the host, simulate the
/// paper's Table-3 cluster.
fn measure_paper_cluster(
    figure: &'static str,
    workload: &Workload,
    algorithm: Algorithm,
    config: &JoinConfig,
) -> Row {
    measure_with_sim_slots(
        figure,
        harness_exec(),
        paper_sim_slots(),
        ClusterConfig::paper_table3().nodes,
        workload,
        algorithm,
        config,
    )
}

/// The paper's configuration of a figure's joins: its θc and δ, and the
/// paper's count prefix (`PrefixKind::Overlap`) in place of
/// `JoinConfig::new`'s weighted prefix, so that every paper figure (Fig. 13
/// included) runs the paper's prefix; the ablations add the weighted prefix
/// as rows of their own.
fn join_config(theta: f64, workload: &Workload) -> JoinConfig {
    JoinConfig::new(theta)
        .with_prefix(PrefixKind::Overlap)
        .with_cluster_threshold(THETA_C)
        .with_partition_threshold(datasets::default_delta(workload))
}

/// Table 3: the cluster configuration used by the evaluation. Returns a row
/// per derived quantity so the harness can print the simulated equivalent.
pub fn table3() -> Vec<(String, String)> {
    let paper = ClusterConfig::paper_table3();
    let local = harness_exec();
    vec![
        ("spark.driver.memory".into(), "12G (paper)".into()),
        ("spark.executor.memory".into(), "8GB (paper)".into()),
        (
            "spark.executor.instances".into(),
            format!("{} (paper) / simulated: {}", 24, local.executor_instances()),
        ),
        (
            "spark.executor.cores".into(),
            format!("{} (paper) / simulated: {}", 5, local.cores_per_executor),
        ),
        (
            "task slots".into(),
            format!(
                "{} (paper) / simulated: {}",
                paper.task_slots(),
                local.task_slots()
            ),
        ),
        (
            "default partitions".into(),
            format!(
                "{} (paper) / simulated: {}",
                paper.default_partitions, local.default_partitions
            ),
        ),
    ]
}

/// Figure 6 (a–e): all four algorithms over θ ∈ {0.1..0.4} on DBLP,
/// DBLPx5, DBLPx10, ORKU and ORKUx5.
pub fn fig6() -> Vec<Row> {
    let workloads = [
        datasets::dblp(),
        datasets::dblp_x(5),
        datasets::dblp_x(10),
        datasets::orku(),
        datasets::orku_x(5),
    ];
    let mut rows = Vec::new();
    for workload in &workloads {
        for &theta in &THETAS {
            for algo in Algorithm::paper_lineup() {
                rows.push(measure_paper_cluster(
                    "fig6",
                    workload,
                    algo,
                    &join_config(theta, workload),
                ));
            }
        }
    }
    rows
}

/// Figure 7: CL-P on 4 vs. 8 nodes (DBLPx5 and ORKU), 3 cores/executor.
/// Executed at the host's parallelism; node scaling is reflected in the
/// `sim_seconds` column (see [`measure_with_sim_slots`]).
pub fn fig7() -> Vec<Row> {
    let workloads = [datasets::dblp_x(5), datasets::orku()];
    let mut rows = Vec::new();
    for workload in &workloads {
        for nodes in [4usize, 8] {
            for &theta in &THETAS {
                let sim_slots = ClusterConfig::paper_scalability(nodes).task_slots();
                // Enough partitions that the 8-node cluster's 72 slots can
                // all be used (the paper runs 286 partitions for the same
                // reason).
                let config = join_config(theta, workload).with_partitions(2 * sim_slots.max(72));
                rows.push(measure_with_sim_slots(
                    "fig7",
                    harness_exec(),
                    sim_slots,
                    nodes,
                    workload,
                    Algorithm::ClP,
                    &config,
                ));
            }
        }
    }
    rows
}

/// Figure 8: CL-P as the DBLP dataset grows ×1 → ×5 → ×10.
pub fn fig8() -> Vec<Row> {
    let mut rows = Vec::new();
    for times in [1usize, 5, 10] {
        let workload = if times == 1 {
            datasets::dblp()
        } else {
            datasets::dblp_x(times)
        };
        for &theta in &THETAS {
            rows.push(measure_paper_cluster(
                "fig8",
                &workload,
                Algorithm::ClP,
                &join_config(theta, &workload),
            ));
        }
    }
    rows
}

/// Figure 9: CL under varying clustering threshold θc (DBLP, DBLPx5, ORKU).
pub fn fig9() -> Vec<Row> {
    let workloads = [datasets::dblp(), datasets::dblp_x(5), datasets::orku()];
    let theta_cs = [0.01, 0.02, 0.03, 0.05, 0.1];
    let mut rows = Vec::new();
    for workload in &workloads {
        for &theta in &THETAS {
            for &theta_c in &theta_cs {
                let config = join_config(theta, workload).with_cluster_threshold(theta_c);
                rows.push(measure_paper_cluster(
                    "fig9",
                    workload,
                    Algorithm::Cl,
                    &config,
                ));
            }
        }
    }
    rows
}

/// Figure 10: CL-P under varying partitioning threshold δ (ORKU, ORKUx5,
/// DBLPx5). The paper varies δ over dataset-dependent ranges and plots two
/// θ values per dataset; we scale the δ grid to the workload size.
pub fn fig10() -> Vec<Row> {
    let mut rows = Vec::new();
    let cases = [
        (datasets::orku(), [0.3, 0.4]),
        (datasets::orku_x(5), [0.1, 0.2]),
        (datasets::dblp_x(5), [0.3, 0.4]),
    ];
    for (workload, thetas) in &cases {
        let base = datasets::default_delta(workload);
        let deltas = [base / 8, base / 4, base / 2, base, base * 2, base * 5];
        for &theta in thetas {
            for &delta in &deltas {
                let config = join_config(theta, workload).with_partition_threshold(delta.max(1));
                rows.push(measure_paper_cluster(
                    "fig10",
                    workload,
                    Algorithm::ClP,
                    &config,
                ));
            }
        }
    }
    rows
}

/// Figure 11: rankings of size k = 25 (ORKU extract), all four algorithms.
/// The paper fixes θc = 0.03 and δ = 5000 here; we keep θc and scale δ.
pub fn fig11() -> Vec<Row> {
    let workload = datasets::orku_k25();
    let mut rows = Vec::new();
    for &theta in &THETAS {
        for algo in Algorithm::paper_lineup() {
            rows.push(measure_paper_cluster(
                "fig11",
                &workload,
                algo,
                &join_config(theta, &workload),
            ));
        }
    }
    rows
}

/// Figure 12: VJ, VJ-NL and CL under a varying number of partitions
/// (DBLP and DBLPx5, θ = 0.3; paper grid {86, 186, 286}).
pub fn fig12() -> Vec<Row> {
    let workloads = [datasets::dblp(), datasets::dblp_x(5)];
    let partitions = [86usize, 186, 286];
    let mut rows = Vec::new();
    for workload in &workloads {
        for &parts in &partitions {
            for algo in [Algorithm::Vj, Algorithm::VjNl, Algorithm::Cl] {
                let config = join_config(0.3, workload).with_partitions(parts);
                rows.push(measure_paper_cluster("fig12", workload, algo, &config));
            }
        }
    }
    rows
}

/// Per-phase wall-time breakdown of one CL-P run (the Figure-2 pipeline
/// made visible): Ordering, Clustering, Joining and Expansion. Figure 2's
/// final dedup has no phase here: the clusters partition the rankings, so
/// no stage deduplicates.
pub fn phase_breakdown(theta: f64) -> Vec<(String, f64)> {
    let workload = datasets::orku();
    let cluster = Cluster::new(harness_exec());
    let config = join_config(theta, &workload);
    Algorithm::ClP
        .run(&cluster, &workload.data, &config)
        .expect("join failed");
    cluster
        .metrics()
        .phase_wall_times()
        .into_iter()
        .map(|(phase, wall)| (phase, wall.as_secs_f64()))
        .collect()
}

/// Ablation sweep (beyond the paper's figures): quantifies each design
/// ingredient by disabling it — the expansion triangle bounds, Lemma 5.3's
/// mixed centroid thresholds, the sound singleton prefix, the position
/// filter, and the frequency ordering (ordered prefix instead) — and the
/// weighted prefix against the paper's count prefix, which every other row
/// uses.
pub fn ablations() -> Vec<Row> {
    let workload = datasets::orku();
    let mut rows = Vec::new();
    for &theta in &[0.2, 0.4] {
        let base = join_config(theta, &workload);
        let cases: Vec<(Algorithm, JoinConfig)> = vec![
            (Algorithm::Cl, base.clone()),
            (Algorithm::Cl, base.clone().with_triangle_bounds(false)),
            (Algorithm::Cl, base.clone().with_lemma53(false)),
            (Algorithm::Cl, {
                let mut c = base.clone();
                c.strict_paper_prefixes = true;
                c
            }),
            (Algorithm::VjNl, base.clone()),
            (Algorithm::VjNl, base.clone().with_position_filter(false)),
            (
                Algorithm::VjNl,
                base.clone().with_prefix(PrefixKind::Ordered),
            ),
            (
                Algorithm::Cl,
                base.clone().with_prefix(PrefixKind::Weighted),
            ),
            (
                Algorithm::VjNl,
                base.clone().with_prefix(PrefixKind::Weighted),
            ),
        ];
        for (algo, config) in cases {
            rows.push(measure_paper_cluster("ablations", &workload, algo, &config));
        }
    }
    // At k = 25 the weight planes round every weight down to an even
    // number, so the rank-weight stage lets more pairs reach the merge.
    let long = datasets::orku_k25();
    for prefix in [PrefixKind::Overlap, PrefixKind::Weighted] {
        rows.push(measure_paper_cluster(
            "ablations",
            &long,
            Algorithm::VjNl,
            &join_config(0.4, &long).with_prefix(prefix),
        ));
    }
    rows
}

/// Figure 13: CL-P under a varying number of partitions (DBLPx5, θ = 0.3;
/// paper grid {286, 386, 486, 586, 686}), on the paper's count prefix.
pub fn fig13() -> Vec<Row> {
    let workload = datasets::dblp_x(5);
    let mut rows = Vec::new();
    for parts in [286usize, 386, 486, 586, 686] {
        let config = join_config(0.3, &workload).with_partitions(parts);
        rows.push(measure_paper_cluster(
            "fig13",
            &workload,
            Algorithm::ClP,
            &config,
        ));
    }
    rows
}

/// The R-S experiment: the scaled ORKU-like corpus (left relation) joined
/// against an external `right` relation with every Footrule R-S driver, at
/// θ ∈ {0.1, 0.3}. All drivers are asserted pairwise identical, and — while
/// the cross product stays below a brute-force budget — checked against the
/// exact bipartite reference.
pub fn rs_join_rows(right: &[Ranking], right_name: &str) -> Vec<Row> {
    let left = datasets::orku();
    let dataset = format!("{}⋈{right_name}", left.name);
    let capture = crate::capture::Capture::active();
    let exec_config = harness_exec();
    type RsDriver = fn(
        &Cluster,
        &[Ranking],
        &[Ranking],
        &JoinConfig,
    ) -> Result<topk_simjoin::JoinOutcome, topk_simjoin::JoinError>;
    let drivers: [(&'static str, RsDriver); 3] = [
        ("VJ-RS", topk_simjoin::vj_join_rs),
        ("VJ-NL-RS", topk_simjoin::vj_nl_join_rs),
        ("CL-RS", topk_simjoin::cl_join_rs),
    ];
    let mut rows = Vec::new();
    for &theta in &[0.1, 0.3] {
        let config = JoinConfig::new(theta).with_cluster_threshold(THETA_C);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        if left.data.len().saturating_mul(right.len()) <= 4_000_000 {
            let cluster = Cluster::new(exec_config.clone());
            reference = Some(
                topk_simjoin::brute_force_join_rs(&cluster, &left.data, right, theta)
                    .expect("R-S reference join failed")
                    .pairs,
            );
        } else {
            eprintln!(
                "# rs: skipping brute-force check at θ = {theta} ({} × {} cross pairs)",
                left.data.len(),
                right.len()
            );
        }
        for (name, driver) in drivers {
            let cluster = match capture {
                Some(cap) => cap.cluster(exec_config.clone()),
                None => Cluster::new(exec_config.clone()),
            };
            let run_span = cluster
                .trace()
                .span(format!("run/rs/{dataset}/{name}@{theta}"));
            let outcome = driver(&cluster, &left.data, right, &config).expect("R-S join failed");
            drop(run_span);
            if let Some(expected) = &reference {
                assert_eq!(
                    &outcome.pairs, expected,
                    "{name} disagrees with the brute-force R-S reference at θ = {theta}"
                );
            }
            if let Some(first) = rows.last() {
                let prior: &Row = first;
                if prior.theta == theta {
                    // All drivers of one θ must agree pairwise.
                    assert_eq!(
                        prior.pairs,
                        outcome.pairs.len(),
                        "{name} disagrees with {} at θ = {theta}",
                        prior.algorithm
                    );
                }
            }
            let sim = cluster.metrics().simulated_total(paper_sim_slots());
            if let Some(cap) = capture {
                cap.push(topk_simjoin::RunReport::capture(
                    name,
                    &dataset,
                    left.data.len() + right.len(),
                    &cluster,
                    &config,
                    &outcome,
                    paper_sim_slots(),
                ));
            }
            rows.push(Row {
                figure: "rs",
                dataset: dataset.clone(),
                algorithm: name,
                theta,
                theta_c: config.cluster_threshold,
                delta: config.partition_threshold,
                partitions: config.effective_partitions(exec_config.default_partitions),
                nodes: 1,
                k: left.k(),
                n: left.data.len() + right.len(),
                seconds: outcome.elapsed.as_secs_f64(),
                sim_seconds: sim.as_secs_f64(),
                pairs: outcome.pairs.len(),
                stats: outcome.stats,
            });
        }
    }
    rows
}

/// The arrival-stream experiment: the scaled ORKU-like corpus as the
/// standing index, the external `arrivals` relation consumed in mini-batches
/// of `batch_size` at θ = 0.2. While the cross product stays below a
/// brute-force budget, the union of batch outputs is checked against the
/// one-shot reference (corpus × arrivals ∪ arrivals × arrivals).
pub fn arrivals_rows(arrivals: &[Ranking], arrivals_name: &str, batch_size: usize) -> Vec<Row> {
    const THETA: f64 = 0.2;
    let corpus = datasets::orku();
    let dataset = format!("{}←{arrivals_name}", corpus.name);
    let start = std::time::Instant::now();
    let mut joiner = topk_simjoin::ArrivalJoin::new(&corpus.data, THETA)
        .expect("arrival corpus must be a valid relation");
    let mut pairs = Vec::new();
    for batch in arrivals.chunks(batch_size.max(1)) {
        pairs.extend(
            joiner
                .join_arrivals(batch)
                .expect("arrival batch join failed")
                .pairs,
        );
    }
    let elapsed = start.elapsed();
    pairs.sort_unstable();
    if corpus.data.len().saturating_mul(arrivals.len()) <= 4_000_000 {
        let cluster = Cluster::new(harness_exec());
        let mut expected: Vec<(u64, u64)> =
            topk_simjoin::brute_force_join_rs(&cluster, &corpus.data, arrivals, THETA)
                .expect("arrival reference join failed")
                .pairs
                .into_iter()
                .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
                .collect();
        expected.extend(
            topk_simjoin::brute_force_join(&cluster, arrivals, THETA)
                .expect("arrival reference join failed")
                .pairs,
        );
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(
            pairs, expected,
            "batched arrival join disagrees with the one-shot reference"
        );
    } else {
        eprintln!(
            "# arrivals: skipping one-shot check ({} × {} cross pairs)",
            corpus.data.len(),
            arrivals.len()
        );
    }
    vec![Row {
        figure: "arrivals",
        dataset,
        algorithm: "ARRIVALS",
        theta: THETA,
        theta_c: 0.0,
        delta: batch_size,
        partitions: 0,
        nodes: 1,
        k: corpus.k(),
        n: corpus.data.len() + arrivals.len(),
        seconds: elapsed.as_secs_f64(),
        // The arrival joiner is a single in-memory index probe per record —
        // one slot, so simulated equals measured.
        sim_seconds: elapsed.as_secs_f64(),
        pairs: pairs.len(),
        stats: joiner.stats(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_and_arrival_runners_verify_against_references() {
        std::env::set_var("TOPK_SCALE", "0.02");
        let other = topk_datagen::CorpusProfile::orku_like(80, 10)
            .with_seed(41)
            .generate();
        let rows = rs_join_rows(&other, "other");
        // 3 drivers × 2 thresholds, internally cross-checked + brute-forced.
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.figure == "rs"));
        // Arrival ids must be disjoint from the corpus ids.
        let shifted: Vec<Ranking> = other
            .iter()
            .map(|r| Ranking::new_unchecked(r.id() + 1_000_000, r.items().to_vec()))
            .collect();
        let arrival_rows = arrivals_rows(&shifted, "other", 13);
        assert_eq!(arrival_rows.len(), 1);
        assert_eq!(arrival_rows[0].delta, 13);
        std::env::remove_var("TOPK_SCALE");
    }

    #[test]
    fn measure_produces_consistent_rows() {
        std::env::set_var("TOPK_SCALE", "0.05");
        let workload = datasets::dblp();
        let row = measure(
            "test",
            ClusterConfig::local(2),
            &workload,
            Algorithm::VjNl,
            &join_config(0.2, &workload),
        );
        assert_eq!(row.algorithm, "VJ-NL");
        assert_eq!(row.n, workload.data.len());
        assert!(row.seconds > 0.0);
        std::env::remove_var("TOPK_SCALE");
    }

    #[test]
    fn table3_lists_the_spark_parameters() {
        let rows = table3();
        assert!(rows.iter().any(|(k, _)| k.contains("executor.cores")));
        assert!(rows.iter().any(|(k, _)| k.contains("driver.memory")));
    }
}
