//! Serving-layer latency capture for the online similarity service.
//!
//! ```text
//! bench_serving [--quick] [--out PATH]
//! ```
//!
//! Drives a [`topk_simjoin::ServingIndex`] through three scenarios and
//! reports per-request latency quantiles:
//!
//! * **mix** — concurrent writers and readers at several upsert-vs-query
//!   ratios over the in-process API; p50/p99 read back from the service's
//!   own telemetry histograms (`serving_query_seconds`,
//!   `serving_upsert_seconds`), the same cells `/metrics` exposes,
//! * **http_qps** — paced closed-loop clients against a live
//!   [`topk_simjoin::ServingServer`] at a ladder of offered QPS levels;
//!   p50/p99 measured client-side (request + full response, on one
//!   persistent connection per client),
//! * **durability** — single-ranking upserts with the write-ahead log on
//!   (`ServingIndex::open`) vs off (`ServingIndex::ephemeral`), isolating
//!   the WAL append + snapshot cost per write.
//!
//! Results go to stdout and, as an ordered-JSON document
//! (`topk-simjoin/bench-serving/v1`), to `--out` (default
//! `BENCH_serving.json`). `--quick` shrinks workloads for CI smoke runs.
//! Latency keys use the `_us` suffix, so the committed capture is guarded
//! by `cargo run -p xtask -- bench-diff` like the kernel numbers.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minispark::{HistogramData, Json};
use topk_datagen::CorpusProfile;
use topk_rankings::Ranking;
use topk_simjoin::serving::FOREIGN_QUERY_ID;
use topk_simjoin::{ServingConfig, ServingIndex, ServingServer};

/// Build bound of every service under test (and the nearest-query bound).
const THETA_MAX: f64 = 0.3;
/// The θ every range query uses (inside the build bound).
const QUERY_THETA: f64 = 0.25;
/// Ranking length, matching the paper's default corpora.
const K: usize = 10;
/// Concurrent workload threads in the `mix` scenario.
const THREADS: usize = 4;
/// Closed-loop client connections in the `http_qps` scenario.
const CLIENTS: usize = 4;

struct Opts {
    quick: bool,
    out: PathBuf,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: PathBuf::from("BENCH_serving.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out = PathBuf::from(args.next().expect("--out needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_serving [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// A same-k variant of `r`: items rotated by `seed`, one adjacent swap —
/// close to the original, so replacement upserts exercise real postings.
fn mutated(r: &Ranking, seed: u64) -> Ranking {
    let items = r.items();
    let k = items.len();
    // cast(seed is reduced mod k, k ≤ a few dozen — fits usize exactly)
    let rot = (seed % k as u64) as usize;
    let mut rotated: Vec<u32> = items[rot..].to_vec();
    rotated.extend_from_slice(&items[..rot]);
    // cast(seed mod (k-1) is far below 2^53)
    let swap = (seed % (k as u64 - 1)) as usize;
    rotated.swap(swap, swap + 1);
    Ranking::new(r.id(), rotated).expect("a permutation of distinct items stays distinct")
}

/// A foreign query probe derived from corpus entry `idx`.
fn probe(corpus: &[Ranking], idx: u64) -> Ranking {
    // cast(idx is reduced mod corpus.len() — fits usize exactly)
    let base = &corpus[(idx % corpus.len() as u64) as usize];
    let variant = mutated(base, idx / 7 + 1);
    Ranking::new(FOREIGN_QUERY_ID, variant.items().to_vec())
        .expect("items stay a valid ranking under a new id")
}

/// Nearest-rank quantile of raw nanosecond samples, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    assert!(!sorted_ns.is_empty(), "no latency samples collected");
    // cast(sample counts are far below 2^53 — exact in f64; nearest-rank tolerates rounding)
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    // cast(per-request latencies in ns are far below 2^53)
    sorted_ns[rank - 1] as f64 / 1e3
}

/// Snapshot of one serving histogram's buckets.
fn hist(service: &ServingIndex, name: &str) -> HistogramData {
    service.telemetry().histogram(name).data()
}

/// `after - before`, bucket-wise — isolates the requests a scenario issued
/// from anything recorded earlier on the same service (e.g. the seeding
/// batch, which would otherwise own the p99).
fn hist_delta(after: &HistogramData, before: &HistogramData) -> HistogramData {
    let earlier: std::collections::HashMap<usize, u64> = before.buckets.iter().copied().collect();
    let buckets: Vec<(usize, u64)> = after
        .buckets
        .iter()
        .filter_map(|&(idx, n)| {
            let n = n - earlier.get(&idx).copied().unwrap_or(0);
            (n > 0).then_some((idx, n))
        })
        .collect();
    HistogramData {
        buckets,
        count: after.count - before.count,
        sum: after.sum - before.sum,
    }
}

/// Histogram-bucket quantile, in microseconds.
fn hist_quantile_us(data: &HistogramData, q: f64) -> f64 {
    let value = data
        .quantile(q)
        .expect("the scenario recorded at least one sample");
    // cast(per-request latencies in ns are far below 2^53)
    value as f64 / 1e3
}

fn seeded_service(corpus: &[Ranking]) -> Arc<ServingIndex> {
    let service =
        ServingIndex::ephemeral(ServingConfig::new(THETA_MAX)).expect("ephemeral service");
    service.upsert_batch(corpus).expect("seed corpus");
    Arc::new(service)
}

/// One upsert-vs-query mix level: `THREADS` workers each run `ops` requests
/// against a freshly seeded service; `upsert_pct` of them replace a live
/// ranking, the rest run θ range queries. Quantiles come from the service's
/// telemetry histograms, so they measure exactly what `/metrics` reports.
fn bench_mix(upsert_pct: u64, corpus: &Arc<Vec<Ranking>>, opts: &Opts) -> Json {
    let ops_per_thread: u64 = if opts.quick { 150 } else { 800 };
    let service = seeded_service(corpus);
    let query_base = hist(&service, "serving_query_seconds");
    let upsert_base = hist(&service, "serving_upsert_seconds");

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let service = Arc::clone(&service);
        let corpus = Arc::clone(corpus);
        handles.push(std::thread::spawn(move || {
            for i in 0..ops_per_thread {
                let op = t * ops_per_thread + i;
                if op % 100 < upsert_pct {
                    // cast(op is reduced mod corpus.len() — fits usize exactly)
                    let target = &corpus[(op % corpus.len() as u64) as usize];
                    service
                        .upsert_batch(&[mutated(target, op)])
                        .expect("mix upsert");
                } else {
                    service
                        .query(&probe(&corpus, op), QUERY_THETA)
                        .expect("mix query");
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("mix worker");
    }
    let elapsed = start.elapsed().as_secs_f64();

    let total_ops = THREADS as u64 * ops_per_thread;
    let queries = hist_delta(&hist(&service, "serving_query_seconds"), &query_base);
    let upserts = hist_delta(&hist(&service, "serving_upsert_seconds"), &upsert_base);
    let query_p50 = hist_quantile_us(&queries, 0.50);
    let query_p99 = hist_quantile_us(&queries, 0.99);
    let upsert_p50 = hist_quantile_us(&upserts, 0.50);
    let upsert_p99 = hist_quantile_us(&upserts, 0.99);
    // cast(op counts are far below 2^53 — exact in f64)
    let throughput = total_ops as f64 / elapsed;
    println!(
        "mix    {upsert_pct:3}% upserts  {total_ops:6} ops  {throughput:9.0} ops/s  \
         query p50/p99 {query_p50:7.1}/{query_p99:7.1} µs  \
         upsert p50/p99 {upsert_p50:7.1}/{upsert_p99:7.1} µs",
    );

    Json::obj()
        .with("upsert_pct", Json::num_u64(upsert_pct))
        .with("ops", Json::num_u64(total_ops))
        .with("threads", Json::num_usize(THREADS))
        .with("elapsed_seconds", Json::num(elapsed))
        .with("ops_per_sec", Json::num(throughput))
        .with("query_p50_us", Json::num(query_p50))
        .with("query_p99_us", Json::num(query_p99))
        .with("upsert_p50_us", Json::num(upsert_p50))
        .with("upsert_p99_us", Json::num(upsert_p99))
}

/// One client's persistent connection to the server under test.
fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    BufReader::new(stream)
}

/// One paced request on the client's connection; returns the latency in ns
/// (request written to whole response read).
fn timed_query(connection: &mut BufReader<TcpStream>, items_csv: &str) -> u64 {
    let start = Instant::now();
    let request = format!(
        "GET /query?theta={QUERY_THETA}&items={items_csv}&id={FOREIGN_QUERY_ID} HTTP/1.1\r\n\
         Host: bench\r\n\r\n"
    );
    connection
        .get_mut()
        .write_all(request.as_bytes())
        .expect("write request");
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        let n = connection.read_line(&mut head).expect("read response head");
        assert!(n > 0, "connection closed mid-response: {head}");
    }
    assert!(head.starts_with("HTTP/1.1 200"), "query failed: {head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("response declares its length");
    let mut body = vec![0u8; length];
    connection
        .read_exact(&mut body)
        .expect("read response body");
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One offered-QPS level: `CLIENTS` closed-loop clients pace requests so
/// their aggregate send rate is `offered_qps`, each on one persistent
/// connection — the rows measure the server, not TCP set-up. Latency is
/// measured client-side, end to end.
fn bench_http_level(
    addr: SocketAddr,
    probes: &Arc<Vec<String>>,
    offered_qps: f64,
    opts: &Opts,
) -> Json {
    let duration_secs = if opts.quick { 0.6 } else { 1.5 };
    // cast(request budgets are small positive counts — f64 → u64 after max(1))
    let per_client = ((offered_qps * duration_secs / CLIENTS as f64).ceil() as u64).max(1);
    let interval = Duration::from_secs_f64(CLIENTS as f64 / offered_qps);

    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS as u64 {
        let probes = Arc::clone(probes);
        handles.push(std::thread::spawn(move || {
            // cast(per_client is a small request budget — fits usize)
            let mut samples = Vec::with_capacity(per_client as usize);
            let mut connection = connect(addr);
            let epoch = Instant::now();
            for i in 0..per_client {
                // cast(paced request indexes are small — exact in f64)
                let target = interval.mul_f64(i as f64);
                let now = epoch.elapsed();
                if target > now {
                    std::thread::sleep(target - now);
                }
                // cast(request index is reduced mod probes.len() — fits usize exactly)
                let csv = &probes[((c * per_client + i) % probes.len() as u64) as usize];
                samples.push(timed_query(&mut connection, csv));
            }
            samples
        }));
    }
    let mut samples: Vec<u64> = Vec::new();
    for handle in handles {
        samples.extend(handle.join().expect("http client"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    samples.sort_unstable();

    let requests = samples.len();
    // cast(request counts are far below 2^53 — exact in f64)
    let achieved = requests as f64 / elapsed;
    let p50 = quantile_us(&samples, 0.50);
    let p99 = quantile_us(&samples, 0.99);
    println!(
        "http   offered {offered_qps:6.0} q/s  achieved {achieved:6.0} q/s  \
         {requests:5} requests  p50/p99 {p50:7.1}/{p99:7.1} µs",
    );

    Json::obj()
        .with("offered_qps", Json::num(offered_qps))
        .with("clients", Json::num_usize(CLIENTS))
        .with("requests", Json::num_usize(requests))
        .with("achieved_qps", Json::num(achieved))
        .with("latency_p50_us", Json::num(p50))
        .with("latency_p99_us", Json::num(p99))
}

fn bench_http_qps(corpus: &Arc<Vec<Ranking>>, opts: &Opts) -> Vec<Json> {
    let service = seeded_service(corpus);
    let server = ServingServer::start(0, service, CLIENTS).expect("start server");
    let addr = server.addr();
    let probes: Arc<Vec<String>> = Arc::new(
        (0..64u64)
            .map(|i| {
                let items: Vec<String> = probe(corpus, i)
                    .items()
                    .iter()
                    .map(u32::to_string)
                    .collect();
                items.join(",")
            })
            .collect(),
    );
    let levels: &[f64] = if opts.quick {
        &[150.0, 600.0]
    } else {
        &[200.0, 1000.0, 4000.0]
    };
    levels
        .iter()
        .map(|&qps| bench_http_level(addr, &probes, qps, opts))
        .collect()
}

/// Durable vs ephemeral single-ranking upserts: the WAL append (and the
/// periodic snapshot it triggers) is the entire difference.
fn bench_durability(corpus: &Arc<Vec<Ranking>>, opts: &Opts) -> Json {
    let upserts: u64 = if opts.quick { 300 } else { 2000 };
    let dir = std::env::temp_dir().join(format!("topk-bench-serving-{}", std::process::id()));
    // errors(best-effort temp-dir cleanup)
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServingConfig::new(THETA_MAX);
    let (durable, _) = ServingIndex::open(&dir, config.clone()).expect("open durable service");
    let ephemeral = ServingIndex::ephemeral(config).expect("ephemeral service");
    let mut doc = Json::obj().with("upserts", Json::num_u64(upserts));
    for (service, label) in [(&durable, "durable"), (&ephemeral, "ephemeral")] {
        service.upsert_batch(corpus).expect("seed corpus");
        let base = hist(service, "serving_upsert_seconds");
        let start = Instant::now();
        for op in 0..upserts {
            // cast(op is reduced mod corpus.len() — fits usize exactly)
            let target = &corpus[(op % corpus.len() as u64) as usize];
            service
                .upsert_batch(&[mutated(target, op + 11)])
                .expect("durability upsert");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let delta = hist_delta(&hist(service, "serving_upsert_seconds"), &base);
        let (p50, p99) = (
            hist_quantile_us(&delta, 0.50),
            hist_quantile_us(&delta, 0.99),
        );
        // cast(upsert counts are far below 2^53 — exact in f64)
        let rate = upserts as f64 / elapsed;
        println!(
            "wal    {label:9}  {upserts:6} upserts  {rate:9.0} ops/s  \
             p50/p99 {p50:7.1}/{p99:7.1} µs"
        );
        doc = doc
            .with(&format!("{label}_upsert_p50_us"), Json::num(p50))
            .with(&format!("{label}_upsert_p99_us"), Json::num(p99));
    }

    let stats = durable.stats();
    let doc = doc.with("wal_bytes", Json::num_u64(stats.wal_bytes)).with(
        "wal_records_since_snapshot",
        Json::num_u64(stats.wal_records_since_snapshot),
    );
    // errors(best-effort temp-dir cleanup)
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

fn main() {
    let opts = parse_opts();
    let corpus_n = if opts.quick { 500 } else { 2000 };
    println!(
        "bench_serving: corpus = {corpus_n} rankings, k = {K}, quick = {}",
        opts.quick
    );
    let corpus = Arc::new(CorpusProfile::dblp_like(corpus_n, K).generate());

    let mix_levels: &[u64] = if opts.quick { &[10, 90] } else { &[10, 50, 90] };
    let mix: Vec<Json> = mix_levels
        .iter()
        .map(|&pct| bench_mix(pct, &corpus, &opts))
        .collect();
    let http_qps = bench_http_qps(&corpus, &opts);
    let durability = bench_durability(&corpus, &opts);

    // Headline: the balanced (or closest-to-balanced) mix level.
    let headline = mix
        .iter()
        .min_by_key(|row| {
            row.get("upsert_pct")
                .and_then(Json::as_u64)
                .map_or(u64::MAX, |pct| pct.abs_diff(50))
        })
        .map_or(Json::Null, |row| {
            Json::obj()
                .with(
                    "upsert_pct",
                    row.get("upsert_pct").cloned().unwrap_or(Json::Null),
                )
                .with(
                    "query_p50_us",
                    row.get("query_p50_us").cloned().unwrap_or(Json::Null),
                )
                .with(
                    "query_p99_us",
                    row.get("query_p99_us").cloned().unwrap_or(Json::Null),
                )
        });

    let doc = Json::obj()
        .with("schema", Json::str("topk-simjoin/bench-serving/v1"))
        .with(
            "config",
            Json::obj()
                .with("quick", Json::Bool(opts.quick))
                .with("corpus_records", Json::num_usize(corpus_n))
                .with("k", Json::num_usize(K))
                .with("theta_max", Json::num(THETA_MAX))
                .with("query_theta", Json::num(QUERY_THETA)),
        )
        .with("headline", headline)
        .with("mix", Json::Arr(mix))
        .with("http_qps", Json::Arr(http_qps))
        .with("durability", durability);

    let mut text = doc.render();
    text.push('\n');
    std::fs::write(&opts.out, text).expect("write bench output file");
    println!("wrote {}", opts.out.display());
}
