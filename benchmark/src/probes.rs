//! Layer probes of the traced pass: the standalone index, the WAL store and
//! the in-process serving index, each timed around its public calls with
//! nothing else in the way. The differences between these and the
//! end-to-end numbers are the layers above (lock, telemetry, HTTP).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::{self, mix, SplitMix};
use crate::layers::{self, Ranking, ServingConfig, ServingIndex, WalRecord, WalStore};
use crate::num::{f, fz, ratio};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// Probes per per-operation latency.
const OPS: usize = 2_000;
/// How long one reader and one writer contend in-process.
const CONTENTION: Duration = Duration::from_millis(1_000);
/// An upsert slower than this counts as a stall.
const STALL_US: f64 = 1_000.0;

/// Times each call of `op` over `items`; returns sorted µs samples.
pub fn each_us<T>(items: &[T], mut op: impl FnMut(&T)) -> Vec<f64> {
    sorted(
        items
            .iter()
            .map(|item| {
                let start = Instant::now();
                op(item);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

/// `count` replacement versions of seed-chosen corpus records (same ids).
pub fn replacements(corpus: &[Ranking], count: usize, seed: u64) -> Vec<Ranking> {
    let mut rng = SplitMix::new(mix(seed, 6));
    let vocab = inputs::vocab_of(corpus);
    (0..count)
        .map(|_| {
            let base = &corpus[rng.index(corpus.len())];
            inputs::perturbed(base, base.id(), vocab, &mut rng)
        })
        .collect()
}

/// `index.*`: build, range query, insert, remove and compaction of a
/// standalone `RankingIndex` over `corpus`.
pub fn index(
    out: &mut Outcome,
    tracer: &Tracer,
    corpus: &[Ranking],
    theta_max: f64,
    query_theta: f64,
    seed: u64,
) {
    let mut builds = Vec::new();
    let mut index = layers::index_build(&[], theta_max);
    for run in 0..3 {
        let start = Instant::now();
        index = tracer.span("index.build", None, run, |_| {
            layers::index_build(corpus, theta_max)
        });
        builds.push(start.elapsed().as_secs_f64());
    }
    out.set("index.build_s", median(&builds), builds.len());

    let probes = inputs::probes(corpus, OPS, seed);
    let stats = layers::new_stats();
    let query_us = tracer.span("index.range_query", None, 0, |_| {
        each_us(&probes, |q| {
            std::hint::black_box(layers::index_query(&index, q, query_theta, &stats));
        })
    });
    let counted = stats.snapshot();
    out.set(
        "index.range_query_us",
        percentile(&query_us, 0.5),
        query_us.len(),
    );
    out.set(
        "index.candidates_per_query",
        ratio(f(counted.candidates), fz(probes.len())),
        probes.len(),
    );
    out.set(
        "index.results_per_candidate",
        ratio(f(counted.result_pairs), f(counted.candidates)),
        0,
    );

    let versions = replacements(corpus, OPS, seed);
    let insert_us = tracer.span("index.insert_ranking", None, 0, |_| {
        each_us(&versions, |r| {
            index
                .insert_ranking(r)
                .expect("replacement versions keep the corpus length");
        })
    });
    out.set(
        "index.insert_us",
        percentile(&insert_us, 0.5),
        insert_us.len(),
    );

    let victims: Vec<u64> = corpus.iter().take(OPS).map(Ranking::id).collect();
    let remove_us = tracer.span("index.remove_ranking", None, 0, |_| {
        each_us(&victims, |id| {
            std::hint::black_box(index.remove_ranking(*id));
        })
    });
    out.set(
        "index.remove_us",
        percentile(&remove_us, 0.5),
        remove_us.len(),
    );

    let start = Instant::now();
    let compacted = tracer.span("index.compacted", None, 0, |_| {
        index.compacted().expect("live rankings stay uniform")
    });
    out.set("index.compact_s", start.elapsed().as_secs_f64(), 1);
    out.checks
        .check(compacted.len() == corpus.len() - victims.len(), || {
            format!(
                "compaction kept {} rankings, expected {}",
                compacted.len(),
                corpus.len() - victims.len()
            )
        });
}

/// `rankings.*`: canonicalization and bounded verification, single thread.
pub fn rankings(out: &mut Outcome, tracer: &Tracer, data: &[Ranking], theta: f64) {
    let probes = layers::ranking_probes(tracer, data, theta);
    out.set("rankings.verify_ns_per_pair", probes.verify_ns_per_pair, 0);
    out.set(
        "rankings.order_ns_per_record",
        probes.order_ns_per_record,
        0,
    );
}

/// The kernel filter ratios out of a join's own counters.
pub fn kernel_ratios(out: &mut Outcome, stats: &layers::StatsSnapshot) {
    out.set(
        "kernels.verified_per_candidate",
        ratio(f(stats.verified), f(stats.candidates)),
        0,
    );
    out.set(
        "kernels.results_per_verified",
        ratio(f(stats.result_pairs), f(stats.verified)),
        0,
    );
}

/// `wal.*` except the disk ratio: append, sync, snapshot and replay of a
/// `WalStore` in `dir`.
pub fn wal(out: &mut Outcome, tracer: &Tracer, corpus: &[Ranking], dir: &Path, seed: u64) {
    const TAIL_RECORDS: usize = 500;
    let (mut store, _) = WalStore::open(dir).expect("the scratch directory is writable");
    let records: Vec<WalRecord> = replacements(corpus, OPS, seed)
        .into_iter()
        .map(|r| WalRecord::Upsert(vec![r]))
        .collect();
    let append_us = tracer.span("wal.append", None, 0, |_| {
        each_us(&records, |record| {
            store.append(record).expect("WAL append");
        })
    });
    out.set(
        "wal.append_us",
        percentile(&append_us, 0.5),
        append_us.len(),
    );
    out.set(
        "wal.bytes_per_record",
        ratio(f(store.wal_bytes()), fz(records.len())),
        records.len(),
    );

    let sync_us = tracer.span("wal.sync", None, 0, |_| {
        each_us(&[(); 20], |()| {
            store.sync().expect("WAL fsync");
        })
    });
    out.set("wal.sync_us", percentile(&sync_us, 0.5), sync_us.len());

    let mut snapshots = Vec::new();
    for run in 0..3 {
        let start = Instant::now();
        tracer.span("wal.snapshot", None, run, |_| {
            store.snapshot(corpus).expect("WAL snapshot");
        });
        snapshots.push(start.elapsed().as_secs_f64());
    }
    out.set("wal.snapshot_s", median(&snapshots), snapshots.len());

    for record in &records[..TAIL_RECORDS] {
        store.append(record).expect("WAL append");
    }
    drop(store);
    let start = Instant::now();
    let (_, replay) = tracer.span("wal.open", None, 0, |_| {
        WalStore::open(dir).expect("reopening the WAL directory")
    });
    out.set("wal.replay_s", start.elapsed().as_secs_f64(), 1);
    out.checks.check(
        replay.snapshot.len() == corpus.len()
            && replay.records.len() == TAIL_RECORDS
            && replay.dropped_bytes == 0,
        || {
            format!(
                "replay recovered {} snapshot rankings and {} records",
                replay.snapshot.len(),
                replay.records.len()
            )
        },
    );
}

/// Bytes under `dir` (the serving directory is flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Payload bytes of `live` rankings: an 8-byte id and 4 bytes per item.
pub fn live_bytes(live: usize) -> f64 {
    fz(live * (8 + 4 * layers::K))
}

/// `serving.*`: the in-process cost of `ServingIndex` above the index and
/// the WAL (lock + telemetry), and what one writer does to one reader.
/// Needs `index.range_query_us`, `index.insert_us` and `wal.append_us`
/// already in `out`.
pub fn serving(
    out: &mut Outcome,
    tracer: &Tracer,
    service: &ServingIndex,
    corpus: &[Ranking],
    query_theta: f64,
    seed: u64,
) {
    let probes = inputs::probes(corpus, OPS, seed);
    let query_us = tracer.span("serving.query", None, 0, |_| {
        each_us(&probes, |q| {
            std::hint::black_box(service.query(q, query_theta).expect("in-process query"));
        })
    });
    let query_p50 = percentile(&query_us, 0.5);
    let below = out.get("index.range_query_us").unwrap_or(0.0);
    out.set(
        "serving.query_us",
        (query_p50 - below).max(0.0),
        query_us.len(),
    );
    out.detail(
        "serving_query_inprocess_p50_us",
        query_p50,
        "us",
        query_us.len(),
    );

    let versions = replacements(corpus, OPS / 2, mix(seed, 7));
    let upsert_us = tracer.span("serving.upsert_batch", None, 0, |_| {
        each_us(&versions, |r| {
            service
                .upsert_batch(std::slice::from_ref(r))
                .expect("in-process upsert");
        })
    });
    let upsert_p50 = percentile(&upsert_us, 0.5);
    let below = out.get("index.insert_us").unwrap_or(0.0) + out.get("wal.append_us").unwrap_or(0.0);
    out.set(
        "serving.upsert_us",
        (upsert_p50 - below).max(0.0),
        upsert_us.len(),
    );
    out.detail(
        "serving_upsert_inprocess_p50_us",
        upsert_p50,
        "us",
        upsert_us.len(),
    );

    // One reader against one writer, both back to back.
    let stop = AtomicBool::new(false);
    let writes = replacements(corpus, 200_000.min(corpus.len() * 20), mix(seed, 8));
    let (reads_us, writes_us) = tracer.span("serving.reader_vs_writer", None, 0, |_| {
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut samples = Vec::new();
                for q in probes.iter().cycle() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let start = Instant::now();
                    std::hint::black_box(service.query(q, query_theta).expect("query"));
                    samples.push(start.elapsed().as_secs_f64() * 1e6);
                }
                samples
            });
            let writer = scope.spawn(|| {
                let deadline = Instant::now() + CONTENTION;
                let mut samples = Vec::new();
                for r in writes.iter().cycle() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let start = Instant::now();
                    service
                        .upsert_batch(std::slice::from_ref(r))
                        .expect("in-process upsert");
                    samples.push(start.elapsed().as_secs_f64() * 1e6);
                }
                stop.store(true, Ordering::SeqCst);
                samples
            });
            let writes_us = writer.join().expect("writer thread");
            stop.store(true, Ordering::SeqCst);
            (reader.join().expect("reader thread"), writes_us)
        })
    });
    let reads_us = sorted(reads_us);
    let writes_us = sorted(writes_us);
    if let (Some(_), Some(slowest)) = (reads_us.first(), writes_us.last()) {
        out.set(
            "serving.query_p99_under_writer_us",
            percentile(&reads_us, 0.99),
            reads_us.len(),
        );
        out.set(
            "serving.upsert_stall_max_ms",
            slowest / 1e3,
            writes_us.len(),
        );
        let stalled = writes_us.iter().filter(|&&us| us > STALL_US).count();
        out.set(
            "serving.stall_share",
            ratio(fz(stalled), fz(writes_us.len())),
            writes_us.len(),
        );
    }
}

/// The serving configuration of a workload.
pub fn serving_config(theta_max: f64, snapshot_every: u64, compact_ratio: f64) -> ServingConfig {
    ServingConfig::new(theta_max)
        .with_snapshot_every(snapshot_every)
        .with_compact_ratio(compact_ratio)
}
