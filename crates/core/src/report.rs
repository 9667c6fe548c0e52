//! The run report: one JSON document per measured join run, unifying the
//! engine's [`MetricsReport`], the join's [`StatsSnapshot`], both
//! configurations and the [`ExecutorAnalytics`] read off the stage rows.
//!
//! The schema is versioned (`"topk-simjoin/run-report/v1"`) so downstream
//! tooling can detect incompatible changes; [`validate`] checks a parsed
//! document against the schema *and* the physical invariants the numbers
//! must satisfy (occupancy in `[0, 1]`, non-negative times, per-stage keys).

use minispark::{Cluster, ExecutorAnalytics, Json, MetricsReport};
use topk_rankings::PrefixKind;

use crate::{JoinConfig, JoinOutcome, StatsSnapshot};

/// The versioned schema identifier embedded in every report document.
pub const RUN_REPORT_SCHEMA: &str = "topk-simjoin/run-report/v1";

/// Everything measured about one join run, ready for JSON export.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm display name (`"VJ"`, `"CL-P"`, …).
    pub algorithm: String,
    /// Dataset label.
    pub dataset: String,
    /// Input size (number of rankings).
    pub n: usize,
    /// The join configuration of the run.
    pub join_config: JoinConfig,
    /// The simulated-cluster configuration of the run.
    pub cluster_config: minispark::ClusterConfig,
    /// Measured wall-clock seconds of the run.
    pub seconds: f64,
    /// Simulated seconds at [`RunReport::sim_slots`] slots (LPT makespan).
    pub sim_seconds: f64,
    /// The slot count `sim_seconds` was computed for.
    pub sim_slots: usize,
    /// Number of result pairs.
    pub pairs: usize,
    /// The join's filter/verification counters.
    pub stats: StatsSnapshot,
    /// Per-stage engine metrics.
    pub metrics: MetricsReport,
    /// Executor-utilization analytics of the run's stage rows.
    pub analytics: ExecutorAnalytics,
    /// The heartbeat sampler's time series (`"minispark/heartbeat/v1"`
    /// document); `None` when the cluster ran without a heartbeat.
    pub heartbeat: Option<Json>,
}

impl RunReport {
    /// Captures a report from a finished run: the cluster's metrics, the
    /// executor analytics over them and its heartbeat series, plus the join
    /// outcome.
    pub fn capture(
        algorithm: &str,
        dataset: &str,
        n: usize,
        cluster: &Cluster,
        join_config: &JoinConfig,
        outcome: &JoinOutcome,
        sim_slots: usize,
    ) -> Self {
        let metrics = cluster.metrics();
        let sim_slots = sim_slots.max(1);
        let sim_seconds = metrics.simulated_total(sim_slots).as_secs_f64();
        let analytics = ExecutorAnalytics::from_metrics(&metrics);
        Self {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            n,
            join_config: join_config.clone(),
            cluster_config: cluster.config().clone(),
            seconds: outcome.elapsed.as_secs_f64(),
            sim_seconds,
            sim_slots,
            pairs: outcome.pairs.len(),
            stats: outcome.stats,
            metrics,
            analytics,
            heartbeat: cluster.heartbeat_document(),
        }
    }

    /// Renders this report as one JSON object (schema
    /// [`RUN_REPORT_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", Json::str(RUN_REPORT_SCHEMA))
            .with("algorithm", Json::str(&self.algorithm))
            .with("dataset", Json::str(&self.dataset))
            .with("n", Json::num_usize(self.n))
            .with("join_config", join_config_json(&self.join_config))
            .with("cluster_config", cluster_config_json(&self.cluster_config))
            .with("seconds", Json::num(self.seconds))
            .with("sim_seconds", Json::num(self.sim_seconds))
            .with("sim_slots", Json::num_usize(self.sim_slots))
            .with("pairs", Json::num_usize(self.pairs))
            .with("stats", stats_json(&self.stats))
            .with("stages", stages_json(&self.metrics))
            .with("executor", analytics_json(&self.analytics))
            .with(
                "heartbeat",
                match &self.heartbeat {
                    Some(h) => h.clone(),
                    None => Json::Null,
                },
            )
    }
}

fn prefix_name(prefix: PrefixKind) -> &'static str {
    match prefix {
        PrefixKind::Weighted => "weighted",
        PrefixKind::Overlap => "overlap",
        PrefixKind::Ordered => "ordered",
    }
}

fn join_config_json(c: &JoinConfig) -> Json {
    Json::obj()
        .with("theta", Json::num(c.theta))
        .with("cluster_threshold", Json::num(c.cluster_threshold))
        .with(
            "partition_threshold",
            Json::num_usize(c.partition_threshold),
        )
        .with("partitions", Json::num_usize(c.partitions))
        .with("prefix", Json::str(prefix_name(c.prefix)))
        .with("use_position_filter", Json::Bool(c.use_position_filter))
        .with("use_triangle_bounds", Json::Bool(c.use_triangle_bounds))
        .with("use_lemma53", Json::Bool(c.use_lemma53))
        .with("strict_paper_prefixes", Json::Bool(c.strict_paper_prefixes))
        .with(
            "skew",
            // "off" / "auto" / the fixed budget as a number.
            match c.skew {
                minispark::SkewBudget::Off => Json::str("off"),
                minispark::SkewBudget::Auto => Json::str("auto"),
                minispark::SkewBudget::Fixed(budget) => Json::num_usize(budget),
            },
        )
}

fn cluster_config_json(c: &minispark::ClusterConfig) -> Json {
    Json::obj()
        .with("nodes", Json::num_usize(c.nodes))
        .with("executors_per_node", Json::num_usize(c.executors_per_node))
        .with("cores_per_executor", Json::num_usize(c.cores_per_executor))
        .with("task_slots", Json::num_usize(c.task_slots()))
        .with("default_partitions", Json::num_usize(c.default_partitions))
        .with(
            "spill_record_budget",
            // MAX means "spilling disabled" — exported as null so readers
            // don't mistake a sentinel for a real budget.
            if c.spill_record_budget == usize::MAX {
                Json::Null
            } else {
                Json::num_usize(c.spill_record_budget)
            },
        )
        .with(
            "spill_dir",
            match &c.spill_dir {
                Some(dir) => Json::str(dir.to_string_lossy()),
                None => Json::Null,
            },
        )
        .with("telemetry", Json::Bool(c.telemetry))
        .with(
            "heartbeat_interval_ms",
            match c.heartbeat_interval {
                Some(interval) => Json::num(interval.as_secs_f64() * 1e3),
                None => Json::Null,
            },
        )
}

fn stats_json(s: &StatsSnapshot) -> Json {
    s.fields()
        .into_iter()
        .fold(Json::obj(), |doc, (name, value)| {
            doc.with(name, Json::num_u64(value))
        })
}

fn stages_json(metrics: &MetricsReport) -> Json {
    let slots = metrics.slots.max(1);
    Json::Arr(
        metrics
            .stages
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", Json::num_usize(s.stage_id))
                    .with("name", Json::str(&s.name))
                    .with("wall_ms", Json::num(s.wall.as_secs_f64() * 1e3))
                    .with(
                        "sim_ms",
                        Json::num(s.simulated_wall(slots).as_secs_f64() * 1e3),
                    )
                    .with("tasks", Json::num_usize(s.num_tasks))
                    .with("input_records", Json::num_usize(s.input_records))
                    .with("output_records", Json::num_usize(s.output_records))
                    .with("shuffle_records", Json::num_usize(s.shuffle_records))
                    .with("shuffle_bytes", Json::num_usize(s.shuffle_bytes))
                    .with(
                        "max_partition_records",
                        Json::num_usize(s.max_partition_records),
                    )
                    .with("skew", Json::num(s.skew()))
                    .with("spilled_runs", Json::num_usize(s.spilled_runs))
                    .with("stolen_tasks", Json::num_usize(s.stolen_tasks(slots)))
            })
            .collect(),
    )
}

fn analytics_json(a: &ExecutorAnalytics) -> Json {
    Json::obj()
        .with("slots", Json::num_usize(a.slots))
        .with(
            "critical_path_ms",
            Json::num(a.critical_path().as_secs_f64() * 1e3),
        )
        .with(
            "total_busy_ms",
            Json::num(a.total_busy().as_secs_f64() * 1e3),
        )
        .with("overall_occupancy", Json::num(a.overall_occupancy()))
        .with(
            "overall_idle_fraction",
            Json::num(a.overall_idle_fraction()),
        )
        .with(
            "stages",
            Json::Arr(
                a.stages
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .with("id", Json::num_usize(s.stage_id))
                            .with("name", Json::str(&s.stage))
                            .with("tasks", Json::num_usize(s.tasks))
                            .with("span_ms", Json::num(s.span.as_secs_f64() * 1e3))
                            .with("busy_ms", Json::num(s.busy.as_secs_f64() * 1e3))
                            .with("queue_wait_ms", Json::num(s.queue_wait.as_secs_f64() * 1e3))
                            .with("occupancy", Json::num(s.occupancy))
                            .with("idle_fraction", Json::num(s.idle_fraction))
                            .with(
                                "queue_wait_p50_ms",
                                Json::num(s.queue_wait_p50.as_secs_f64() * 1e3),
                            )
                            .with(
                                "queue_wait_p95_ms",
                                Json::num(s.queue_wait_p95.as_secs_f64() * 1e3),
                            )
                            .with(
                                "queue_wait_max_ms",
                                Json::num(s.queue_wait_max.as_secs_f64() * 1e3),
                            )
                            .with(
                                "longest_task_ms",
                                Json::num(s.longest_task.as_secs_f64() * 1e3),
                            )
                            .with("stolen_tasks", Json::num_usize(s.stolen_tasks))
                            .with("min_slot_occupancy", Json::num(s.min_slot_occupancy()))
                            .with(
                                "slot_busy_ms",
                                Json::Arr(
                                    s.slot_busy
                                        .iter()
                                        .map(|d| Json::num(d.as_secs_f64() * 1e3))
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        )
}

/// Renders a batch of reports as one document:
/// `{"schema": ..., "runs": [...]}`.
pub fn runs_to_json(reports: &[RunReport]) -> Json {
    Json::obj()
        .with("schema", Json::str(RUN_REPORT_SCHEMA))
        .with(
            "runs",
            Json::Arr(reports.iter().map(RunReport::to_json).collect()),
        )
}

fn expect_key<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
}

fn expect_unit_interval(value: &Json, ctx: &str) -> Result<(), String> {
    match value.as_f64() {
        Some(v) if (0.0..=1.0).contains(&v) => Ok(()),
        Some(v) => Err(format!("{ctx}: {v} outside [0, 1]")),
        None => Err(format!("{ctx}: not a number")),
    }
}

fn expect_non_negative(value: &Json, ctx: &str) -> Result<(), String> {
    match value.as_f64() {
        Some(v) if v >= 0.0 => Ok(()),
        Some(v) => Err(format!("{ctx}: {v} is negative")),
        None => Err(format!("{ctx}: not a number")),
    }
}

/// Validates a parsed run-report document (a single run object or a
/// `{"schema", "runs"}` batch): schema identifier, required keys, and the
/// physical invariants (non-negative times and counters, occupancy and idle
/// fraction in `[0, 1]`, `occupancy + idle_fraction = 1` per stage).
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = expect_key(doc, "schema", "document")?
        .as_str()
        .ok_or_else(|| "document: schema is not a string".to_string())?;
    if schema != RUN_REPORT_SCHEMA {
        return Err(format!(
            "document: schema {schema:?} != {RUN_REPORT_SCHEMA:?}"
        ));
    }
    if let Some(runs) = doc.get("runs") {
        let runs = runs
            .as_arr()
            .ok_or_else(|| "document: runs is not an array".to_string())?;
        for (i, run) in runs.iter().enumerate() {
            validate_run(run, &format!("runs[{i}]"))?;
        }
        Ok(())
    } else {
        validate_run(doc, "run")
    }
}

fn validate_run(run: &Json, ctx: &str) -> Result<(), String> {
    for key in [
        "algorithm",
        "dataset",
        "n",
        "join_config",
        "cluster_config",
        "seconds",
        "sim_seconds",
        "sim_slots",
        "pairs",
        "stats",
        "stages",
        "executor",
    ] {
        expect_key(run, key, ctx)?;
    }
    expect_non_negative(expect_key(run, "seconds", ctx)?, &format!("{ctx}.seconds"))?;
    expect_non_negative(
        expect_key(run, "sim_seconds", ctx)?,
        &format!("{ctx}.sim_seconds"),
    )?;
    let join = expect_key(run, "join_config", ctx)?;
    expect_unit_interval(
        expect_key(join, "theta", ctx)?,
        &format!("{ctx}.join_config.theta"),
    )?;
    let stats = expect_key(run, "stats", ctx)?;
    for key in [
        "candidates",
        "verified",
        "result_pairs",
        "skew_chunks",
        "skew_steals",
    ] {
        expect_non_negative(expect_key(stats, key, ctx)?, &format!("{ctx}.stats.{key}"))?;
    }
    // Captures written before the overlap filter existed carry no such key
    // and stay valid `run-report/v1` documents.
    if let Some(overlap_pruned) = stats.get("overlap_pruned") {
        expect_non_negative(overlap_pruned, &format!("{ctx}.stats.overlap_pruned"))?;
    }
    let stages = expect_key(run, "stages", ctx)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}.stages is not an array"))?;
    for (i, stage) in stages.iter().enumerate() {
        let sctx = format!("{ctx}.stages[{i}]");
        for key in ["id", "name", "wall_ms", "sim_ms", "tasks"] {
            expect_key(stage, key, &sctx)?;
        }
        expect_non_negative(
            expect_key(stage, "wall_ms", &sctx)?,
            &format!("{sctx}.wall_ms"),
        )?;
        expect_non_negative(
            expect_key(stage, "sim_ms", &sctx)?,
            &format!("{sctx}.sim_ms"),
        )?;
    }
    // Documents written before every report carried analytics hold null
    // here; they stay valid `run-report/v1` documents.
    let executor = expect_key(run, "executor", ctx)?;
    if !matches!(executor, Json::Null) {
        let ectx = format!("{ctx}.executor");
        expect_unit_interval(
            expect_key(executor, "overall_occupancy", &ectx)?,
            &format!("{ectx}.overall_occupancy"),
        )?;
        expect_unit_interval(
            expect_key(executor, "overall_idle_fraction", &ectx)?,
            &format!("{ectx}.overall_idle_fraction"),
        )?;
        expect_non_negative(
            expect_key(executor, "critical_path_ms", &ectx)?,
            &format!("{ectx}.critical_path_ms"),
        )?;
        let estages = expect_key(executor, "stages", &ectx)?
            .as_arr()
            .ok_or_else(|| format!("{ectx}.stages is not an array"))?;
        for (i, stage) in estages.iter().enumerate() {
            let sctx = format!("{ectx}.stages[{i}]");
            let occ = expect_key(stage, "occupancy", &sctx)?;
            let idle = expect_key(stage, "idle_fraction", &sctx)?;
            expect_unit_interval(occ, &format!("{sctx}.occupancy"))?;
            expect_unit_interval(idle, &format!("{sctx}.idle_fraction"))?;
            match (occ.as_f64(), idle.as_f64()) {
                (Some(o), Some(d)) if (o + d - 1.0).abs() <= 1e-9 => {}
                _ => return Err(format!("{sctx}: occupancy + idle_fraction != 1")),
            }
            expect_non_negative(
                expect_key(stage, "busy_ms", &sctx)?,
                &format!("{sctx}.busy_ms"),
            )?;
            expect_non_negative(
                expect_key(stage, "queue_wait_ms", &sctx)?,
                &format!("{sctx}.queue_wait_ms"),
            )?;
            expect_non_negative(
                expect_key(stage, "stolen_tasks", &sctx)?,
                &format!("{sctx}.stolen_tasks"),
            )?;
            expect_unit_interval(
                expect_key(stage, "min_slot_occupancy", &sctx)?,
                &format!("{sctx}.min_slot_occupancy"),
            )?;
        }
    }
    // The heartbeat section is optional (absent in pre-telemetry documents,
    // null when the run had no sampler), but when present it must be a valid
    // `minispark/heartbeat/v1` document.
    if let Some(heartbeat) = run.get("heartbeat") {
        if !matches!(heartbeat, Json::Null) {
            let hctx = format!("{ctx}.heartbeat");
            let schema = expect_key(heartbeat, "schema", &hctx)?
                .as_str()
                .ok_or_else(|| format!("{hctx}.schema is not a string"))?;
            if schema != minispark::telemetry::HEARTBEAT_SCHEMA {
                return Err(format!(
                    "{hctx}.schema {schema:?} != {:?}",
                    minispark::telemetry::HEARTBEAT_SCHEMA
                ));
            }
            expect_non_negative(
                expect_key(heartbeat, "interval_ms", &hctx)?,
                &format!("{hctx}.interval_ms"),
            )?;
            let samples = expect_key(heartbeat, "samples", &hctx)?
                .as_arr()
                .ok_or_else(|| format!("{hctx}.samples is not an array"))?;
            for (i, sample) in samples.iter().enumerate() {
                let sctx = format!("{hctx}.samples[{i}]");
                expect_non_negative(expect_key(sample, "t_ms", &sctx)?, &format!("{sctx}.t_ms"))?;
                expect_key(sample, "metrics", &sctx)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vj_join, vj_join_rs, Algorithm};
    use minispark::{ClusterConfig, TraceCollector};
    use topk_datagen::CorpusProfile;

    fn run_report(trace: bool) -> RunReport {
        run_report_on(ClusterConfig::local(4), trace)
    }

    fn run_report_on(config: ClusterConfig, trace: bool) -> RunReport {
        let cluster = if trace {
            Cluster::with_trace(config, TraceCollector::enabled())
        } else {
            Cluster::new(config)
        };
        let data = CorpusProfile::dblp_like(120, 10).generate();
        let jc = JoinConfig::new(0.3);
        let outcome = vj_join(&cluster, &data, &jc).expect("valid corpus");
        RunReport::capture(
            Algorithm::Vj.name(),
            "dblp-like",
            data.len(),
            &cluster,
            &jc,
            &outcome,
            8,
        )
    }

    /// Rewrites the top-level `key` of a run document.
    fn with_key(mut doc: Json, key: &str, replacement: Json) -> Json {
        let Json::Obj(fields) = &mut doc else {
            panic!("a run report is an object");
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key present");
        *value = replacement;
        doc
    }

    #[test]
    fn report_without_trace_carries_executor_analytics() {
        let report = run_report(false);
        assert!(!report.analytics.stages.is_empty());
        assert_eq!(report.analytics.stages.len(), report.metrics.stages.len());
        let doc = report.to_json();
        let stages = doc
            .get("executor")
            .and_then(|e| e.get("stages"))
            .and_then(Json::as_arr)
            .expect("executor stages");
        assert!(!stages.is_empty());
        validate(&doc).expect("report validates");
        // Documents from before every report carried analytics stay valid.
        validate(&with_key(doc, "executor", Json::Null)).expect("null executor validates");
    }

    #[test]
    fn tracing_does_not_change_the_executor_section() {
        let config = ClusterConfig::local(4).with_schedule(minispark::Schedule::Seeded(5));
        let traced = run_report_on(config.clone(), true).analytics;
        let untraced = run_report_on(config, false).analytics;
        let shape = |a: &ExecutorAnalytics| -> Vec<(usize, String, usize, usize)> {
            a.stages
                .iter()
                .map(|s| (s.stage_id, s.stage.clone(), s.tasks, s.stolen_tasks))
                .collect()
        };
        assert_eq!(traced.slots, untraced.slots);
        assert_eq!(shape(&traced), shape(&untraced));
        assert!(
            traced.stages.iter().any(|s| s.stolen_tasks > 0),
            "a seeded schedule steals somewhere, so the comparison is not vacuous"
        );
    }

    #[test]
    fn report_with_trace_round_trips_and_validates() {
        let report = run_report(true);
        let doc = report.to_json();
        validate(&doc).expect("report validates");
        let text = doc.render();
        let parsed = Json::parse(&text).expect("report JSON parses");
        validate(&parsed).expect("parsed report validates");
        let executor = parsed.get("executor").expect("executor present");
        assert!(executor.get("stages").and_then(Json::as_arr).is_some());
        assert_eq!(parsed.get("algorithm").and_then(Json::as_str), Some("VJ"));
        // Spilling is disabled in the default config → exported as null.
        assert!(matches!(
            parsed
                .get("cluster_config")
                .and_then(|c| c.get("spill_record_budget")),
            Some(Json::Null)
        ));
    }

    /// The run shape the self-joins above never report: two relations and
    /// split posting lists (non-zero skew counters, chunk-pair stages).
    fn rs_skew_report() -> RunReport {
        let cluster = Cluster::with_trace(ClusterConfig::local(4), TraceCollector::enabled());
        let data = CorpusProfile::dblp_like(160, 10).generate();
        let (left, right) = data.split_at(120);
        let jc = JoinConfig::new(0.3).with_skew(minispark::SkewBudget::Fixed(1));
        let outcome = vj_join_rs(&cluster, left, right, &jc).expect("valid relations");
        assert!(outcome.stats.skew_chunks > 0, "a budget of 1 must split");
        RunReport::capture("VJ-RS", "dblp-like", data.len(), &cluster, &jc, &outcome, 8)
    }

    #[test]
    fn batch_document_validates() {
        let reports = vec![run_report(false), run_report(true), rs_skew_report()];
        let doc = runs_to_json(&reports);
        validate(&doc).expect("batch validates");
        let parsed = Json::parse(&doc.render()).expect("batch parses");
        let runs = parsed
            .get("runs")
            .and_then(Json::as_arr)
            .expect("runs array");
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(validate(&Json::obj()).is_err());
        let wrong_schema = Json::obj().with("schema", Json::str("nope"));
        assert!(validate(&wrong_schema).is_err());
        let doc = with_key(run_report(true).to_json(), "seconds", Json::num(-1.0));
        assert!(validate(&doc).is_err());
    }

    /// Rewrites `stats.overlap_pruned` of a run document: `None` removes the
    /// key (the shape of a capture that predates the filter).
    fn with_overlap_pruned(mut doc: Json, replacement: Option<Json>) -> Json {
        let Json::Obj(fields) = &mut doc else {
            panic!("a run report is an object");
        };
        let (_, stats) = fields
            .iter_mut()
            .find(|(key, _)| key == "stats")
            .expect("stats object");
        let Json::Obj(stats) = stats else {
            panic!("stats is an object");
        };
        stats.retain(|(key, _)| key != "overlap_pruned");
        if let Some(value) = replacement {
            stats.push(("overlap_pruned".to_string(), value));
        }
        doc
    }

    #[test]
    fn overlap_pruned_is_reported_and_optional_on_read() {
        let doc = run_report(false).to_json();
        let stats = doc.get("stats").expect("stats");
        let count = |key: &str| stats.get(key).and_then(Json::as_f64).expect("a counter");
        assert_eq!(
            count("candidates"),
            count("position_pruned") + count("overlap_pruned") + count("verified")
        );
        validate(&with_overlap_pruned(doc.clone(), None)).expect("old captures stay valid");
        assert!(validate(&with_overlap_pruned(doc, Some(Json::num(-1.0)))).is_err());
    }

    #[test]
    fn report_with_heartbeat_embeds_the_time_series() {
        let config = ClusterConfig::local(4).with_heartbeat(std::time::Duration::from_millis(1));
        let cluster = Cluster::new(config);
        let data = CorpusProfile::dblp_like(120, 10).generate();
        let jc = JoinConfig::new(0.3);
        let outcome = vj_join(&cluster, &data, &jc).expect("valid corpus");
        let report = RunReport::capture(
            Algorithm::Vj.name(),
            "dblp-like",
            data.len(),
            &cluster,
            &jc,
            &outcome,
            8,
        );
        let doc = report.to_json();
        validate(&doc).expect("heartbeat report validates");
        let heartbeat = doc.get("heartbeat").expect("heartbeat present");
        assert_eq!(
            heartbeat.get("schema").and_then(Json::as_str),
            Some(minispark::telemetry::HEARTBEAT_SCHEMA)
        );
        let samples = heartbeat
            .get("samples")
            .and_then(Json::as_arr)
            .expect("samples array");
        assert!(!samples.is_empty(), "final flush sample always present");
        // The telemetry switches are exported with the cluster config.
        let cc = doc.get("cluster_config").expect("cluster config");
        assert_eq!(cc.get("telemetry").and_then(Json::as_bool), Some(true));
        assert!(cc
            .get("heartbeat_interval_ms")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn validate_rejects_a_malformed_heartbeat_section() {
        let doc = with_key(
            run_report(false).to_json(),
            "heartbeat",
            Json::obj().with("schema", Json::str("nope")),
        );
        assert!(validate(&doc).is_err());
    }
}
