//! The binding list: every call the harness makes into the measured crates.
//!
//! No other module of the benchmark names `topk_simjoin`, `topk_rankings`,
//! `topk_datagen` or `minispark`. When the join surface is refactored, this
//! file is re-bound and the rest of the benchmark stays as it is.
//!
//! Layers are timed from out here, around their public functions; the staged
//! joins below replay a driver's dataflow one public call per span so each
//! span can be attributed to the module it enters.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use minispark::{Cluster, ClusterConfig, Dataset};
use topk_datagen::CorpusProfile;
use topk_rankings::distance::raw_threshold;
use topk_rankings::{FrequencyTable, ItemId, OrderedRanking, PrefixKind, Relation};
use topk_simjoin::centroid_join::centroid_join;
use topk_simjoin::clustering::clustering_phase;
use topk_simjoin::expansion::expansion;
use topk_simjoin::kernels::{
    join_group_indexed, join_group_nested_loop, with_group_scratch, GroupThresholds, JoinMode,
    TokenEntry,
};
use topk_simjoin::pipeline::{emit_prefixes, order_rankings, PairHit};
use topk_simjoin::stats::JoinStats;
use topk_simjoin::{clp_join, vj_join, vj_join_rs, vj_nl_join, JoinConfig};

pub use minispark::Json;
pub use topk_rankings::Ranking;
pub use topk_simjoin::serving::FOREIGN_QUERY_ID;
pub use topk_simjoin::{
    ArrivalJoin, JoinOutcome, RankingIndex, ServingConfig, ServingIndex, ServingServer,
    StatsSnapshot, WalRecord, WalStore,
};

use crate::num::{f, fz, ratio};
use crate::trace::Tracer;

/// The cores the benchmark is sized for: HTTP workers of every server, and
/// task slots of the batch cluster where two slots beat one (see
/// `workloads`).
pub const SLOTS: usize = 2;

/// Ranking length of every workload.
pub const K: usize = 10;

/// Result pairs as the joins return them.
pub type Pairs = Vec<(u64, u64)>;

/// Which generator preset a corpus comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `CorpusProfile::dblp_like`: moderate skew, small groups.
    Dblp,
    /// `CorpusProfile::orku_like`: heavy skew, large groups.
    Orku,
}

/// Generates `n` top-[`K`] rankings with ids `0..n`.
pub fn generate(profile: Profile, n: usize, seed: u64) -> Vec<Ranking> {
    match profile {
        Profile::Dblp => CorpusProfile::dblp_like(n, K),
        Profile::Orku => CorpusProfile::orku_like(n, K),
    }
    .with_seed(seed)
    .generate()
}

/// A validated ranking (the harness only builds distinct-item lists).
pub fn ranking(id: u64, items: Vec<u32>) -> Ranking {
    Ranking::new(id, items).expect("harness-built rankings hold distinct items")
}

/// A fresh cluster of `slots` task slots; every timed join gets its own.
pub fn new_cluster(slots: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(slots))
}

/// The batch self-joins the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `vj_join`.
    Vj,
    /// `vj_nl_join` (cross-check only).
    VjNl,
    /// `clp_join` with θc = 0.03 and δ = n/150.
    Clp,
}

fn join_config(algo: Algo, theta: f64, n: usize) -> JoinConfig {
    match algo {
        Algo::Vj | Algo::VjNl => JoinConfig::new(theta),
        Algo::Clp => JoinConfig::new(theta)
            .with_cluster_threshold(0.03)
            .with_partition_threshold((n / 150).max(1)),
    }
}

/// One whole self-join: input in memory → sorted pair vector.
pub fn join(algo: Algo, data: &[Ranking], theta: f64, slots: usize) -> JoinOutcome {
    let cluster = new_cluster(slots);
    let config = join_config(algo, theta, data.len());
    match algo {
        Algo::Vj => vj_join(&cluster, data, &config),
        Algo::VjNl => vj_nl_join(&cluster, data, &config),
        Algo::Clp => clp_join(&cluster, data, &config),
    }
    .expect("benchmark inputs are uniform-length with unique ids")
}

/// One whole R-S join; pairs are `(left id, right id)`.
pub fn join_rs(left: &[Ranking], right: &[Ranking], theta: f64, slots: usize) -> JoinOutcome {
    vj_join_rs(&new_cluster(slots), left, right, &JoinConfig::new(theta))
        .expect("benchmark inputs are uniform-length with unique ids per relation")
}

/// Counts and ratios a staged join reports next to its spans.
#[derive(Debug, Clone, Default)]
pub struct StagedCounts {
    /// `(prefix token, record)` pairs emitted per input record.
    pub prefix_tokens_per_record: f64,
    /// Estimated bytes moved across shuffles per input record.
    pub shuffle_bytes_per_record: f64,
    /// Largest output partition's share of a wide stage's records.
    pub max_partition_share: f64,
    /// Entries in the largest token group.
    pub max_group_len: f64,
    /// Filter counters of the whole staged join.
    pub stats: StatsSnapshot,
    /// Share of records that joined a non-singleton cluster (CL-P).
    pub clustered_share: f64,
    /// Expansion candidates decided by a triangle bound, not a distance.
    pub triangle_decided_share: f64,
}

/// A staged join's result: the pairs, the root span, and the counts.
pub struct Staged {
    /// Sorted result pairs (must equal the driver's).
    pub pairs: Pairs,
    /// Index of the run's root span.
    pub root: Option<usize>,
    /// Ratios measured at the stage boundaries.
    pub counts: StagedCounts,
    /// The grouped prefix shuffle, kept for the nested-loop comparison.
    grouped: Option<Dataset<(ItemId, Vec<TokenEntry>)>>,
}

fn hits_from(entries: &[TokenEntry], triples: Vec<(usize, usize, u64)>) -> Vec<PairHit> {
    triples
        .into_iter()
        .map(|(i, j, distance)| {
            let (a, b) = (&entries[i], &entries[j]);
            PairHit {
                a: Arc::clone(&a.ranking),
                b: Arc::clone(&b.ranking),
                distance,
                a_singleton: a.singleton,
                b_singleton: b.singleton,
                a_relation: a.relation,
                b_relation: b.relation,
            }
        })
        .collect()
}

fn shuffle_counts(cluster: &Cluster, n: usize) -> (f64, f64) {
    let report = cluster.metrics();
    let share = report
        .stages
        .iter()
        .filter(|s| s.shuffle_records > 0 && s.output_records > 0)
        .map(|s| ratio(fz(s.max_partition_records), fz(s.output_records)))
        .fold(0.0, f64::max);
    (ratio(fz(report.total_shuffle_bytes()), fz(n)), share)
}

/// VJ, one public call per span: ordering → prefix emit → group by token →
/// indexed group kernel → pair dedup → collect and sort.
pub fn vj_staged(
    tracer: &Tracer,
    run_id: u64,
    data: &[Ranking],
    theta: f64,
    slots: usize,
) -> Staged {
    let cluster = new_cluster(slots);
    let partitions = cluster.config().default_partitions;
    let theta_raw = raw_threshold(K, theta);
    let p = PrefixKind::Overlap.prefix_len(K, theta_raw);
    let stats = Arc::new(JoinStats::default());
    let mut counts = StagedCounts::default();
    let mut kept = None;
    let mut root = None;

    let pairs = tracer.span("vj.run", None, run_id, |run| {
        root = run;
        let ordered = tracer.span("pipeline.order_rankings", run, run_id, |_| {
            order_rankings(&cluster, data, PrefixKind::Overlap, partitions, "vj")
        });
        let emitted = tracer.span("pipeline.emit_prefixes", run, run_id, |_| {
            emit_prefixes(&ordered, p, false, Relation::Left, "vj/emit-prefixes")
        });
        let grouped = tracer.span("minispark.group_by_key", run, run_id, |_| {
            emitted.group_by_key("vj/group-by-token", partitions)
        });
        let hits = tracer.span("kernels.join_group_indexed", run, run_id, |_| {
            let stats = Arc::clone(&stats);
            grouped.flat_map("vj/join-groups", move |(_, entries)| {
                let triples = with_group_scratch(|scratch| {
                    join_group_indexed(
                        entries,
                        |_| p,
                        &GroupThresholds::Uniform(theta_raw),
                        true,
                        JoinMode::SelfJoin,
                        &stats,
                        scratch,
                    )
                });
                hits_from(entries, triples)
            })
        });
        let deduped = tracer.span("minispark.reduce_by_key", run, run_id, |_| {
            hits.map("vj/key-pairs", |hit: &PairHit| {
                (hit.record_keys(), hit.clone())
            })
            .reduce_by_key("vj/dedup-pairs", partitions, |a, _| a)
        });
        let mut pairs = tracer.span("harness.collect_sort", run, run_id, |_| {
            deduped
                .map("vj/project-ids", |(_, hit): &(_, PairHit)| hit.ids())
                .collect()
        });
        pairs.sort_unstable();
        counts.prefix_tokens_per_record = ratio(fz(emitted.count()), fz(data.len()));
        kept = Some(grouped);
        pairs
    });

    (counts.shuffle_bytes_per_record, counts.max_partition_share) =
        shuffle_counts(&cluster, data.len());
    counts.max_group_len = kept.as_ref().map_or(0.0, |grouped| {
        let lens = grouped.map("vj/group-lens", |(_, entries)| entries.len());
        fz(lens.collect().into_iter().max().unwrap_or(0))
    });
    counts.stats = stats.snapshot();
    Staged {
        pairs,
        root,
        counts,
        grouped: kept,
    }
}

/// The nested-loop kernel over the same token groups a [`vj_staged`] run
/// shuffled (outside the run span: VJ itself never executes it).
pub fn nested_loop_over(tracer: &Tracer, run_id: u64, staged: &Staged, theta: f64) -> usize {
    let Some(grouped) = &staged.grouped else {
        return 0;
    };
    let theta_raw = raw_threshold(K, theta);
    let stats = Arc::new(JoinStats::default());
    tracer.span("kernels.join_group_nested_loop", None, run_id, |_| {
        grouped
            .flat_map("vj/join-groups-nl", move |(_, entries)| {
                join_group_nested_loop(
                    entries,
                    &GroupThresholds::Uniform(theta_raw),
                    true,
                    JoinMode::SelfJoin,
                    &stats,
                )
            })
            .count()
    })
}

/// CL-P, one public call per span: ordering → clustering → centroid join →
/// expansion → final distinct, collect and sort.
pub fn clp_staged(
    tracer: &Tracer,
    run_id: u64,
    data: &[Ranking],
    theta: f64,
    slots: usize,
) -> Staged {
    let cluster = new_cluster(slots);
    let partitions = cluster.config().default_partitions;
    let config = join_config(Algo::Clp, theta, data.len());
    let theta_raw = raw_threshold(K, theta);
    let theta_c_raw = raw_threshold(K, config.cluster_threshold);
    let delta = Some(config.partition_threshold);
    let stats = Arc::new(JoinStats::default());
    let mut counts = StagedCounts::default();
    let mut root = None;

    let pairs = tracer.span("cl-p.run", None, run_id, |run| {
        root = run;
        let ordered = tracer.span("pipeline.order_rankings", run, run_id, |_| {
            order_rankings(&cluster, data, config.prefix, partitions, "cl-p")
        });
        let clustering = tracer.span("clustering.clustering_phase", run, run_id, |_| {
            clustering_phase(
                &cluster,
                &ordered,
                K,
                theta_raw,
                theta_c_raw,
                &config,
                partitions,
                &stats,
            )
        });
        let cjoin = tracer.span("centroid_join.centroid_join", run, run_id, |_| {
            centroid_join(
                &clustering.centroids_m,
                &clustering.singletons,
                K,
                &config,
                partitions,
                delta,
                &stats,
            )
        });
        let before = stats.snapshot();
        let expanded = tracer.span("expansion.expansion", run, run_id, |_| {
            expansion(
                &cjoin,
                &clustering.clusters,
                theta_raw,
                config.use_triangle_bounds,
                partitions,
                &stats,
            )
        });
        let after = stats.snapshot();
        let decided = (after.triangle_pruned - before.triangle_pruned)
            + (after.triangle_accepted - before.triangle_accepted);
        let verified = after.verified - before.verified;
        counts.triangle_decided_share = ratio(f(decided), f(decided + verified));
        let mut pairs = tracer.span("harness.collect_sort", run, run_id, |_| {
            expanded
                .union(&clustering.within_cluster_pairs)
                .distinct("cl-p/final-distinct", partitions)
                .collect()
        });
        pairs.sort_unstable();
        pairs
    });

    (counts.shuffle_bytes_per_record, counts.max_partition_share) =
        shuffle_counts(&cluster, data.len());
    counts.stats = stats.snapshot();
    counts.clustered_share = 1.0 - ratio(f(counts.stats.singletons), fz(data.len()));
    Staged {
        pairs,
        root,
        counts,
        grouped: None,
    }
}

/// `rankings` probes: canonicalization cost per record and bounded
/// verification cost per pair of records that share their rarest item
/// (the pairs a prefix filter hands to verification).
pub struct RankingProbes {
    /// `OrderedRanking::by_frequency`, ns per record.
    pub order_ns_per_record: f64,
    /// `OrderedRanking::footrule_within`, ns per pair.
    pub verify_ns_per_pair: f64,
}

/// Runs the `rankings` probes over `data` at raw threshold θ.
pub fn ranking_probes(tracer: &Tracer, data: &[Ranking], theta: f64) -> RankingProbes {
    const MAX_PAIRS: usize = 2_000_000;
    const MAX_PER_BUCKET: usize = 64;
    let theta_raw = raw_threshold(K, theta);
    let freq = FrequencyTable::from_rankings(data);
    let start = tracer.now_ns();
    let ordered: Vec<OrderedRanking> = tracer.span("rankings.by_frequency", None, 0, |_| {
        data.iter()
            .map(|r| OrderedRanking::by_frequency(r, &freq))
            .collect()
    });
    let order_ns = tracer.now_ns() - start;

    let mut buckets: HashMap<ItemId, Vec<usize>> = HashMap::new();
    for (i, r) in ordered.iter().enumerate() {
        if let Some(&(item, _)) = r.pairs().first() {
            let bucket = buckets.entry(item).or_default();
            if bucket.len() < MAX_PER_BUCKET {
                bucket.push(i);
            }
        }
    }
    let mut sample: Vec<(usize, usize)> = Vec::new();
    let mut keys: Vec<&ItemId> = buckets.keys().collect();
    keys.sort_unstable();
    'fill: for key in keys {
        let bucket = &buckets[key];
        for (pos, &i) in bucket.iter().enumerate() {
            for &j in &bucket[pos + 1..] {
                sample.push((i, j));
                if sample.len() == MAX_PAIRS {
                    break 'fill;
                }
            }
        }
    }
    let start = tracer.now_ns();
    let within = tracer.span("rankings.footrule_within", None, 0, |_| {
        sample
            .iter()
            .filter(|&&(i, j)| {
                std::hint::black_box(ordered[i].footrule_within(&ordered[j], theta_raw)).is_some()
            })
            .count()
    });
    std::hint::black_box(within);
    let verify_ns = tracer.now_ns() - start;
    RankingProbes {
        order_ns_per_record: ratio(f(order_ns), fz(data.len())),
        verify_ns_per_pair: ratio(f(verify_ns), fz(sample.len())),
    }
}

/// A fresh standalone index over `data`.
pub fn index_build(data: &[Ranking], theta_max: f64) -> RankingIndex {
    RankingIndex::build(data, theta_max).expect("benchmark corpora are uniform with unique ids")
}

/// One counted range query; returns the matches.
pub fn index_query(
    index: &RankingIndex,
    query: &Ranking,
    theta: f64,
    stats: &JoinStats,
) -> Vec<(u64, u64)> {
    index
        .range_query_with_stats(query, theta, stats)
        .expect("probe thresholds stay within theta_max")
}

/// Fresh counters for [`index_query`].
pub fn new_stats() -> JoinStats {
    JoinStats::default()
}

/// A standing corpus for arrival mini-batches.
pub fn arrival_join(corpus: &[Ranking], theta: f64) -> ArrivalJoin {
    ArrivalJoin::new(corpus, theta).expect("benchmark corpora are uniform with unique ids")
}

/// Opens (or recovers) a durable serving index rooted at `dir`.
pub fn serving_open(dir: &Path, config: ServingConfig) -> ServingIndex {
    ServingIndex::open(dir, config)
        .expect("the benchmark's scratch directory is writable")
        .0
}

/// Starts the HTTP server on an ephemeral port with `workers` workers.
pub fn serving_start(service: Arc<ServingIndex>, workers: usize) -> ServingServer {
    ServingServer::start(0, service, workers).expect("binding an ephemeral loopback port")
}
