//! The stage log, pinned: one fixed pipeline over every engine operator that
//! records a stage — narrow maps, `group_by_key`, `reduce_by_key`,
//! `distinct`, `partition_by` and a spilling `group_by_key_spilling` — must
//! leave exactly the same stage rows
//! and the same shuffle-flush and spill-run trace marks on a single slot, on
//! a three-slot pool and under a deterministic schedule.
//!
//! The expected rows are literals, not a comparison between runs: a change
//! to the task loop or to a shuffle's reduce side that moves a row's task
//! count, span count, record counts, shuffle volume, skew or spill count
//! fails here even when it moves every run the same way.

use minispark::{
    audit_snapshot, Cluster, ClusterConfig, CompositePartitioner, Schedule, TraceCollector,
};

/// In-memory record budget of the spilling group-by: small enough that
/// every reduce partition spills.
const SPILL_BUDGET: usize = 16;

/// One stage row: name, then tasks, spans, input / output / shuffled
/// records, shuffle bytes, largest output partition and spilled runs.
type Row = (&'static str, [usize; 8]);

const EXPECTED_ROWS: [Row; 9] = [
    ("key", [6, 6, 600, 600, 0, 0, 100, 0]),
    ("group", [4, 10, 600, 41, 600, 9600, 12, 0]),
    ("reduce", [5, 17, 600, 41, 246, 3936, 10, 0]),
    ("lens", [4, 4, 41, 41, 0, 0, 12, 0]),
    ("residues", [4, 4, 41, 41, 0, 0, 12, 0]),
    ("distinct", [4, 8, 41, 7, 41, 328, 3, 0]),
    ("composite", [5, 5, 41, 41, 0, 0, 10, 0]),
    ("spread", [8, 5, 41, 41, 41, 656, 7, 0]),
    ("spill", [4, 10, 600, 41, 600, 9600, 12, 36]),
];

/// Trace marks in order, consecutive equal marks folded into one entry:
/// name, value, repeats.
const EXPECTED_MARKS: [(&str, u64, usize); 6] = [
    ("shuffle-flush/group", 600, 1),
    ("shuffle-flush/reduce", 246, 1),
    ("shuffle-flush/distinct", 41, 1),
    ("shuffle-flush/spread", 41, 1),
    ("shuffle-flush/spill", 600, 1),
    ("spill-run/spill", 1, 36),
];

/// What [`run_pipeline`] returns on every configuration.
const EXPECTED_CHECKSUM: u64 = 191_526;

/// Runs the fixed pipeline and returns a checksum of its outputs.
fn run_pipeline(cluster: &Cluster) -> u64 {
    let base = cluster.parallelize((0..600u32).collect(), 6);
    let pairs = base.map("key", |&n| (n % 41, u64::from(n)));
    let grouped = pairs.group_by_key("group", 4);
    let sums = pairs.reduce_by_key("reduce", 5, |a, b| a + b);
    let lens = grouped.map("lens", |(k, vs)| (*k, vs.len() as u64));
    let residues = lens.map("residues", |&(k, len)| (u64::from(k) + len) % 7);
    let distinct = residues.distinct("distinct", 4);
    let spread = sums
        .map("composite", |&(k, sum)| ((k % 3, k), sum))
        .partition_by("spread", &CompositePartitioner::new(8));
    let spilled = pairs.group_by_key_spilling("spill", 4);

    let mut checksum = distinct.collect().iter().sum::<u64>();
    checksum += spread.collect().iter().map(|(_, v)| v).sum::<u64>();
    checksum += spilled
        .collect()
        .iter()
        .map(|(k, vs)| u64::from(*k) * vs.len() as u64)
        .sum::<u64>();
    checksum
}

fn rows_of(cluster: &Cluster) -> Vec<(String, [usize; 8])> {
    let rows = cluster.metrics().stages;
    rows.into_iter()
        .map(|s| {
            let numbers = [
                s.num_tasks,
                s.spans.len(),
                s.input_records,
                s.output_records,
                s.shuffle_records,
                s.shuffle_bytes,
                s.max_partition_records,
                s.spilled_runs,
            ];
            (s.name, numbers)
        })
        .collect()
}

fn marks_of(cluster: &Cluster) -> Vec<(String, u64, usize)> {
    let mut folded: Vec<(String, u64, usize)> = Vec::new();
    let snapshot = cluster.trace().snapshot();
    let marks = snapshot
        .marks()
        .filter(|m| m.name.starts_with("shuffle-flush/") || m.name.starts_with("spill-run/"));
    for mark in marks {
        match folded.last_mut() {
            Some((name, value, repeats)) if *name == mark.name && *value == mark.value => {
                *repeats += 1;
            }
            _ => folded.push((mark.name.clone(), mark.value, 1)),
        }
    }
    folded
}

#[test]
fn stage_rows_and_marks_match_the_pinned_log() {
    let configs = [
        ("local(1)", ClusterConfig::local(1)),
        ("local(3)", ClusterConfig::local(3)),
        (
            "local(3) stragglers-first",
            ClusterConfig::local(3).with_schedule(Schedule::StragglersFirst),
        ),
    ];
    for (label, config) in configs {
        let cluster = Cluster::with_trace(
            config.with_spill_budget(SPILL_BUDGET),
            TraceCollector::enabled(),
        );
        assert_eq!(
            run_pipeline(&cluster),
            EXPECTED_CHECKSUM,
            "outputs on {label}"
        );
        let expected_rows: Vec<(String, [usize; 8])> = EXPECTED_ROWS
            .iter()
            .map(|&(name, numbers)| (name.to_string(), numbers))
            .collect();
        let expected_marks: Vec<(String, u64, usize)> = EXPECTED_MARKS
            .iter()
            .map(|&(name, value, repeats)| (name.to_string(), value, repeats))
            .collect();
        assert_eq!(rows_of(&cluster), expected_rows, "stage rows on {label}");
        assert_eq!(marks_of(&cluster), expected_marks, "trace marks on {label}");
        let violations = audit_snapshot(&cluster.trace().snapshot(), &cluster.metrics().stages);
        assert!(violations.is_empty(), "{label}: {violations:?}");
    }
}
