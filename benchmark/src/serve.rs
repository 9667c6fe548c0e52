//! The serving workloads: a durable `ServingIndex` behind the HTTP server,
//! driven by a load generator in the same process.
//!
//! Protocol of the measured run: set-up (generation + seeding + snapshot +
//! reopen + server start, repeated for a steady `setup_s`), a short warm-up,
//! then a **closed loop**: [`CONNECTIONS`] senders back to back, each on its
//! own connection, for `--seconds`. The completions are cut into blocks of
//! [`BLOCK`]; the reported throughput and latency are those of the
//! **fastest tenth** of the blocks, that is, of the stretches in which the
//! host took the least from the process (see the README, *Steadiness*, for
//! why nothing else holds still here).
//!
//! The issue's **open loop** — one request per millisecond, each timed from
//! when it was *due*, generator lateness reported — runs in the traced pass,
//! where nothing is bounded: its latencies hang on how fast an idle virtual
//! core wakes, which swings by a factor of three from minute to minute.
//!
//! Each connection's request stream (ops, ids, probes) is a pure function of
//! the seed, and writes only ids of the connection's own class, so the final
//! state is well defined however the connections interleave, and the
//! harness can check the server against a shadow copy of it.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::{render, Client, ConnectBudget};
use crate::inputs::{self, mix, SetupReps, SplitMix};
use crate::layers::{self, Json, Ranking, ServingIndex, ServingServer, SLOTS};
use crate::num::{f, fz, idx, n64, nanos, ratio};
use crate::oracle::{self, Checks};
use crate::probes;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{fastest, median, percentile, rate_holds, sorted, RateObservation};
use crate::trace::{Span, Tracer};
use crate::workloads::{Mix, Workload, QUERY_THETA};

/// Connections of the closed loop, and id classes of the request stream:
/// one request in service and one waiting per HTTP worker, so that a worker
/// never goes idle between two requests and no request pays for waking one.
const CONNECTIONS: usize = 2 * SLOTS;
/// Distinct query probes the stream draws from.
const PROBE_POOL: usize = 4_096;
/// Requests per connection of the measured closed loop, at most, so that a
/// run stays below the client's connection cap however fast the machine; on
/// this one `--seconds` ends the loop first, after some 70 000.
const REQUESTS_EACH: usize = 90_000;
/// Completions per block of the closed loop.
const BLOCK: usize = 500;
/// Samples of the primary operation a block needs for its median to count.
const MIN_PER_BLOCK: usize = 30;
/// Untimed sequential queries before the load starts.
const WARM_UP: usize = 300;
/// Quiescent queries checked against a scan of the shadow state.
const ORACLE_QUERIES: usize = 200;
/// Times the directory is reopened; the fastest is `recovery_s`.
const RECOVERY_REPS: usize = 5;
/// Length of each open loop of a `--trace 1` run.
const TRACE_LOOP: Duration = Duration::from_millis(3_000);
/// Sequential requests per HTTP probe of the traced pass.
const HTTP_PROBES: usize = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Query,
    Upsert,
    Delete,
}

fn csv(items: &[u32]) -> String {
    let strings: Vec<String> = items.iter().map(u32::to_string).collect();
    strings.join(",")
}

fn query_request(items: &[u32]) -> Vec<u8> {
    render(
        "GET",
        &format!("/query?theta={QUERY_THETA}&items={}", csv(items)),
        "",
    )
}

fn upsert_request(id: u64, items: &[u32]) -> Vec<u8> {
    render(
        "POST",
        "/rankings",
        &format!("[{{\"id\":{id},\"items\":[{}]}}]", csv(items)),
    )
}

/// What the connections' streams share.
struct StreamInputs<'a> {
    corpus: &'a [Ranking],
    mix: Mix,
    vocab: u32,
    /// The rendered query of each probe of the pool.
    queries: Vec<Vec<u8>>,
}

impl<'a> StreamInputs<'a> {
    fn new(corpus: &'a [Ranking], mix: &Mix, seed: u64) -> Self {
        Self {
            corpus,
            mix: *mix,
            vocab: inputs::vocab_of(corpus),
            queries: inputs::probes(corpus, PROBE_POOL, seed)
                .iter()
                .map(|probe| query_request(probe.items()))
                .collect(),
        }
    }

    /// One stream per connection.
    fn streams(&self, seed: u64) -> Vec<Stream<'_>> {
        (0..CONNECTIONS)
            .map(|connection| Stream {
                inputs: self,
                connection,
                rng: SplitMix::new(mix(mix(seed, 9), n64(connection))),
                reinsert: None,
                written: HashMap::new(),
                raw: Vec::new(),
            })
            .collect()
    }
}

/// One connection's requests: a pure function of the seed and the
/// connection, rendered as they are sent, so that a run may be as long as
/// it likes. The stream writes only ids of its own class (`id %
/// CONNECTIONS == connection`) and remembers what it left behind.
struct Stream<'a> {
    inputs: &'a StreamInputs<'a>,
    connection: usize,
    rng: SplitMix,
    /// An id the last request deleted: the next request puts it back, so no
    /// other write to it can land in between.
    reinsert: Option<u64>,
    /// The last write to each id this stream wrote: the new items, or `None`
    /// for a delete.
    written: HashMap<u64, Option<Vec<u32>>>,
    /// The rendered write of the current request.
    raw: Vec<u8>,
}

impl Stream<'_> {
    /// The next request: its kind and its bytes.
    fn next(&mut self) -> (OpKind, &[u8]) {
        let inputs = self.inputs;
        if let Some(id) = self.reinsert.take() {
            return self.upsert(id);
        }
        let roll = self.rng.below(100);
        if roll < inputs.mix.query_pct {
            let probe = self.rng.index(inputs.queries.len());
            return (OpKind::Query, &inputs.queries[probe]);
        }
        let per_connection = inputs.corpus.len() / CONNECTIONS;
        let id = n64(self.rng.index(per_connection) * CONNECTIONS + self.connection);
        if roll < inputs.mix.query_pct + inputs.mix.upsert_pct {
            return self.upsert(id);
        }
        self.reinsert = Some(id);
        self.written.insert(id, None);
        self.raw = render("DELETE", &format!("/rankings/{id}"), "");
        (OpKind::Delete, &self.raw)
    }

    /// A replacing upsert of `id`: a near-duplicate of its first version.
    fn upsert(&mut self, id: u64) -> (OpKind, &[u8]) {
        let base = &self.inputs.corpus[idx(id)];
        let items = inputs::perturbed(base, id, self.inputs.vocab, &mut self.rng)
            .items()
            .to_vec();
        self.raw = upsert_request(id, &items);
        self.written.insert(id, Some(items));
        (OpKind::Upsert, &self.raw)
    }
}

/// One completed (or failed) request. A run keeps some 300 000 of them, so
/// only the end is a full timestamp (ns since the phase epoch); the rest are
/// 32-bit distances back from it, which hold 4.2 s and saturate beyond.
#[derive(Debug, Clone, Copy)]
struct Sample {
    end_ns: u64,
    /// From when the request was due (open loop) or sent (closed loop).
    since_due_ns: u32,
    /// From when the request was sent.
    since_start_ns: u32,
    /// Time spent opening a connection for it.
    connect_ns: u32,
    kind: OpKind,
    ok: bool,
}

fn short(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Sample {
    fn due_ns(&self) -> u64 {
        self.end_ns - u64::from(self.since_due_ns)
    }

    fn start_ns(&self) -> u64 {
        self.end_ns - u64::from(self.since_start_ns)
    }
}

/// Busy-waits (yielding the core to anything runnable) until `target`.
/// Sleeping would add the timer's slack to every latency.
fn wait_until(target: Instant) {
    while Instant::now() < target {
        std::thread::yield_now();
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// One sender, one connection, `requests` requests drawn from the
    /// streams in turn: request `i` is due `i / rate` seconds after the epoch
    /// and sent in schedule order, so a request that stalls delays the ones
    /// due behind it, and that wait is in their latency.
    Open { rate_per_s: f64, requests: usize },
    /// One sender per stream, each back to back on its own connection, until
    /// it has sent `requests_each` or the phase has lasted `stop_after`.
    Closed {
        stop_after: Duration,
        requests_each: usize,
    },
}

/// What one sender did in one phase.
struct SenderReport {
    samples: Vec<Sample>,
    connects: u64,
    requests: u64,
}

/// One sender: draws its requests from `streams` in turn.
fn drive(
    addr: SocketAddr,
    budget: &ConnectBudget,
    streams: &mut [Stream<'_>],
    pacing: Pacing,
    epoch: Instant,
) -> SenderReport {
    let mut client = Client::new(addr, budget);
    let mut samples = Vec::new();
    loop {
        let sent = samples.len();
        let due_ns = match pacing {
            Pacing::Open {
                rate_per_s,
                requests,
            } => {
                if sent == requests {
                    break;
                }
                let due = Duration::from_secs_f64(fz(sent) / rate_per_s);
                wait_until(epoch + due);
                Some(nanos(due))
            }
            Pacing::Closed {
                stop_after,
                requests_each,
            } => {
                if sent == requests_each || epoch.elapsed() >= stop_after {
                    break;
                }
                None
            }
        };
        let turn = sent % streams.len();
        let (kind, raw) = streams[turn].next();
        let start_ns = nanos(epoch.elapsed());
        let reply = client.request(raw);
        let end_ns = nanos(epoch.elapsed());
        samples.push(Sample {
            end_ns,
            since_due_ns: short(end_ns - due_ns.unwrap_or(start_ns)),
            since_start_ns: short(end_ns - start_ns),
            connect_ns: reply.as_ref().map_or(0, |r| short(r.connect_ns)),
            kind,
            ok: reply.is_ok_and(|r| r.status == 200),
        });
    }
    SenderReport {
        samples,
        connects: client.connects,
        requests: client.requests,
    }
}

/// One phase of the load.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    elapsed_s: f64,
    connects: u64,
    requests: u64,
}

fn run_phase(
    addr: SocketAddr,
    budget: &ConnectBudget,
    streams: &mut [Stream<'_>],
    pacing: Pacing,
) -> Phase {
    let epoch = Instant::now();
    let streams_per_sender = match pacing {
        Pacing::Open { .. } => streams.len(),
        Pacing::Closed { .. } => 1,
    };
    let done = AtomicBool::new(false);
    let reports: Vec<SenderReport> = std::thread::scope(|scope| {
        if matches!(pacing, Pacing::Open { .. }) {
            // While the lone sender blocks in `read`, nothing else in the
            // process is runnable and the cores would go idle between
            // requests. On a virtual machine waking an idle core costs tens
            // of microseconds, several times per request, and how often a
            // request pays it swings with the host: the median moved between
            // 110 and 330 µs from one minute to the next. One thread that
            // only yields keeps a core awake and gives way to any thread
            // that has work.
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        }
        let handles: Vec<_> = streams
            .chunks_mut(streams_per_sender)
            .map(|own| scope.spawn(move || drive(addr, budget, own, pacing, epoch)))
            .collect();
        let reports = handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        reports
    });
    let mut phase = Phase::default();
    for report in reports {
        phase.connects += report.connects;
        phase.requests += report.requests;
        phase.samples.extend(report.samples);
    }
    let last_end = phase.samples.iter().map(|s| s.end_ns).max().unwrap_or(0);
    phase.elapsed_s = f(last_end) / 1e9;
    phase
}

/// Sorted latencies from due time of the ok samples of `kind`, µs.
fn latencies_us(samples: &[Sample], kind: OpKind) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .map(|s| f64::from(s.since_due_ns) / 1e3)
            .collect(),
    )
}

/// The `q`-quantile latency of `kind` in each one-second window of the
/// schedule, and the median of those, µs. One bad second — the host
/// stalling the process for tens of milliseconds — then moves one window,
/// not the result. Returns the value and the samples behind it.
fn windowed_us(samples: &[Sample], kind: OpKind, q: f64) -> (f64, usize) {
    const WINDOW_NS: u64 = 1_000_000_000;
    const MIN_PER_WINDOW: usize = 30;
    let mut windows: BTreeMap<u64, Vec<Sample>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.kind == kind && s.ok) {
        windows.entry(s.due_ns() / WINDOW_NS).or_default().push(*s);
    }
    let count = windows.values().map(Vec::len).sum();
    let per_window: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= MIN_PER_WINDOW)
        .map(|w| percentile(&latencies_us(w, kind), q))
        .collect();
    let value = if !per_window.is_empty() {
        median(&per_window)
    } else if count > 0 {
        // A run too short to fill a window: the whole run is the window.
        percentile(&latencies_us(samples, kind), q)
    } else {
        0.0
    };
    (value, count)
}

/// One block of [`BLOCK`] consecutive completions of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    /// Completions per second: the block's size over the time since the
    /// block before it ended.
    per_s: f64,
    /// Median latency of the block's requests of the primary kind, µs;
    /// `None` when it has too few of them.
    p50_us: Option<f64>,
}

/// The closed loop's completions in order, cut into blocks. The first block
/// (the senders are still connecting) and the partial last one are left out.
fn blocks(samples: &[Sample], kind: OpKind, size: usize, min_of_kind: usize) -> Vec<Block> {
    let mut by_end: Vec<&Sample> = samples.iter().collect();
    by_end.sort_by_key(|s| s.end_ns);
    let ends: Vec<u64> = by_end
        .chunks_exact(size)
        .map(|b| b[size - 1].end_ns)
        .collect();
    by_end
        .chunks_exact(size)
        .zip(&ends)
        .skip(1)
        .zip(&ends)
        .map(|((block, &end), &previous_end)| {
            let latencies = sorted(
                block
                    .iter()
                    .filter(|s| s.kind == kind && s.ok)
                    .map(|s| f64::from(s.since_start_ns) / 1e3)
                    .collect(),
            );
            Block {
                per_s: ratio(fz(size), f(end.saturating_sub(previous_end)) / 1e9),
                p50_us: (latencies.len() >= min_of_kind).then(|| percentile(&latencies, 0.5)),
            }
        })
        .collect()
}

/// The tenth of the blocks (at least one) with the highest throughput: the
/// stretches in which the host took the least from the process. One block
/// alone can be a fluke — three senders stalled and the fourth served at
/// once — a tenth of some hundred blocks is not.
fn fastest_tenth(blocks: &[Block]) -> Vec<Block> {
    let mut by_rate = blocks.to_vec();
    by_rate.sort_by(|a, b| b.per_s.total_cmp(&a.per_s));
    by_rate.truncate(blocks.len().div_ceil(10));
    by_rate
}

fn failures(samples: &[Sample]) -> u64 {
    n64(samples.iter().filter(|s| !s.ok).count())
}

/// A running service: the scratch directory, the index and its server.
struct Service {
    dir: PathBuf,
    index: Arc<ServingIndex>,
    server: ServingServer,
}

fn open_service(dir: &Path, w: &Workload, mix_: &Mix, corpus: &[Ranking]) -> Service {
    // errors(a directory left by an earlier run may or may not exist)
    let _ = std::fs::remove_dir_all(dir);
    let config = probes::serving_config(w.theta, mix_.snapshot_every, mix_.compact_ratio);
    // Seed through the API, snapshot, and restart: an index rebuilt from a
    // snapshot orders items by their real frequencies, as any service that
    // has been restarted once does. (One that only ever saw upserts into an
    // empty index treats every item as equally rare until its first
    // compaction, and probes far longer posting lists.)
    let seeding = layers::serving_open(dir, config.clone());
    seeding.upsert_batch(corpus).expect("seeding the index");
    seeding.snapshot_now().expect("snapshot after seeding");
    drop(seeding);
    let index = Arc::new(layers::serving_open(dir, config));
    let server = layers::serving_start(Arc::clone(&index), w.slots);
    Service {
        dir: dir.to_path_buf(),
        index,
        server,
    }
}

/// Generates the corpus and brings the service up `reps` times; keeps the
/// last. Returns the per-repetition set-up times.
fn set_up(
    w: &Workload,
    mix_: &Mix,
    seed: u64,
    scratch: &Path,
    repeat: bool,
) -> (Vec<Ranking>, Service, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    let mut reps = SetupReps::new(repeat);
    while reps.again() {
        drop(kept.take());
        let start = Instant::now();
        let corpus = inputs::corpus(w.profile, w.n, seed);
        let service = open_service(&scratch.join("serving"), w, mix_, &corpus);
        times.push(start.elapsed().as_secs_f64());
        kept = Some((corpus, service));
    }
    let (corpus, service) = kept.expect("at least one set-up repetition");
    (corpus, service, times)
}

/// The shadow state: what the server must hold once every stream's
/// requests are through. The streams write disjoint ids, so the order among
/// them does not matter.
fn shadow_state(corpus: &[Ranking], streams: &[Stream<'_>]) -> Vec<Option<Vec<u32>>> {
    let mut state: Vec<Option<Vec<u32>>> =
        corpus.iter().map(|r| Some(r.items().to_vec())).collect();
    for stream in streams {
        for (&id, items) in &stream.written {
            state[idx(id)].clone_from(items);
        }
    }
    state
}

/// `(id, raw distance)` matches out of a `/query` response body.
fn parse_matches(body: &[u8]) -> Option<Vec<(u64, u64)>> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("matches")?
        .as_arr()?
        .iter()
        .map(|m| Some((m.get("id")?.as_u64()?, m.get("raw_distance")?.as_u64()?)))
        .collect()
}

/// `"count":N` of a `/query` response body, without a full parse.
fn parse_count(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"count\":")? + 8..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// After the load: quiescent queries over HTTP, then the reopened index,
/// must both equal a scan of the shadow state. Consumes the service; returns
/// the recovery times.
fn verify_state(
    checks: &mut Checks,
    service: Service,
    w: &Workload,
    mix_: &Mix,
    state: &[Option<Vec<u32>>],
    seed: u64,
    queries: usize,
) -> Vec<f64> {
    let mut rng = SplitMix::new(mix(seed, 10));
    let theta_raw = oracle::raw_threshold(layers::K, QUERY_THETA);
    let live: Vec<(u64, &[u32])> = state
        .iter()
        .enumerate()
        .filter_map(|(id, items)| items.as_deref().map(|items| (n64(id), items)))
        .collect();
    let probes: Vec<Vec<u32>> = (0..queries)
        .map(|_| live[rng.index(live.len())].1.to_vec())
        .collect();
    let expected: Vec<Vec<(u64, u64)>> = probes
        .iter()
        .map(|q| oracle::scan(live.iter().copied(), q, theta_raw))
        .collect();

    let budget = ConnectBudget::default();
    let mut client = Client::new(service.server.addr(), &budget);
    let mut wrong = 0;
    for (q, want) in probes.iter().zip(&expected) {
        let ok = client
            .request(&query_request(q))
            .is_ok_and(|reply| reply.status == 200)
            && parse_matches(client.body()).as_ref() == Some(want);
        wrong += u64::from(!ok);
    }
    checks.add(n64(queries), wrong, "quiescent HTTP queries vs shadow scan");

    let Service { dir, index, server } = service;
    drop(server);
    drop(index);
    let config = probes::serving_config(w.theta, mix_.snapshot_every, mix_.compact_ratio);
    let mut recovery_s = Vec::new();
    let mut reopened = None;
    for _ in 0..RECOVERY_REPS {
        drop(reopened.take());
        let start = Instant::now();
        reopened = Some(layers::serving_open(&dir, config.clone()));
        recovery_s.push(start.elapsed().as_secs_f64());
    }
    let reopened = reopened.expect("at least one recovery repetition");
    checks.check(reopened.len() == live.len(), || {
        format!(
            "the reopened index holds {} rankings, the shadow state {}",
            reopened.len(),
            live.len()
        )
    });
    let mut wrong = 0;
    for (q, want) in probes.iter().zip(&expected) {
        let query = layers::ranking(layers::FOREIGN_QUERY_ID, q.clone());
        let got = reopened.query(&query, QUERY_THETA).ok();
        wrong += u64::from(got.as_ref() != Some(want));
    }
    checks.add(n64(queries), wrong, "reopened-index queries vs shadow scan");
    let mut wrong = 0;
    for _ in 0..queries {
        let id = rng.index(state.len());
        let stored = reopened.get(n64(id)).map(|r| r.items().to_vec());
        wrong += u64::from(stored != state[id]);
    }
    checks.add(
        n64(queries),
        wrong,
        "reopened-index lookups vs shadow state",
    );
    drop(reopened);
    recovery_s
}

fn warm_up(addr: SocketAddr, corpus: &[Ranking], seed: u64) {
    let budget = ConnectBudget::default();
    let mut client = Client::new(addr, &budget);
    for probe in inputs::probes(corpus, WARM_UP, mix(seed, 11)) {
        // errors(warm-up replies are not measured; a broken server fails the measured phases)
        let _ = client.request(&query_request(probe.items()));
    }
}

/// Whether the open loop kept to its schedule: achieved rate, generator
/// lateness, and the issue's "rate holds" verdict, as detail rows.
fn open_loop_details(out: &mut Outcome, phase: &Phase, offered: usize, rate_per_s: f64) {
    let queries = latencies_us(&phase.samples, OpKind::Query);
    let lateness_ms = sorted(
        phase
            .samples
            .iter()
            .map(|s| f(s.start_ns() - s.due_ns()) / 1e6)
            .collect(),
    );
    let tail_from = phase.samples.len() - phase.samples.len() / 10;
    let mut by_due: Vec<&Sample> = phase.samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns());
    let end_lateness_ms = by_due[tail_from.min(by_due.len() - 1)..]
        .iter()
        .map(|s| f(s.start_ns() - s.due_ns()) / 1e6)
        .fold(0.0, f64::max);
    let observation = RateObservation {
        offered_per_s: rate_per_s,
        achieved_per_s: ratio(fz(phase.samples.len()), phase.elapsed_s),
        failures: failures(&phase.samples),
        query_p99_us: percentile(&queries, 0.99),
        end_lateness_ms,
    };
    out.detail("offered_per_s", rate_per_s, "1/s", offered);
    out.detail(
        "achieved_per_s",
        observation.achieved_per_s,
        "1/s",
        phase.samples.len(),
    );
    out.detail(
        "generator_lateness_p99_ms",
        percentile(&lateness_ms, 0.99),
        "ms",
        lateness_ms.len(),
    );
    out.detail(
        "generator_lateness_end_ms",
        end_lateness_ms,
        "ms",
        phase.samples.len() / 10,
    );
    out.detail(
        "reference_rate_holds",
        f64::from(u8::from(rate_holds(&observation))),
        "bool",
        0,
    );
}

/// Sorted latencies from the send of the ok samples of `kind`, µs.
fn service_us(samples: &[Sample], kind: OpKind) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .map(|s| f64::from(s.since_start_ns) / 1e3)
            .collect(),
    )
}

/// The `--trace 0` run of a serving workload.
fn measure(w: &Workload, mix_: &Mix, seed: u64, seconds: u64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (corpus, service, setup_s) = set_up(w, mix_, seed, scratch, true);
    out.input_checksum = inputs::checksum(&corpus);
    let addr = service.server.addr();
    let stream_inputs = StreamInputs::new(&corpus, mix_, seed);
    let mut streams = stream_inputs.streams(seed);
    let budget = ConnectBudget::default();

    warm_up(addr, &corpus, seed);
    let closed_loop = Pacing::Closed {
        stop_after: Duration::from_secs(seconds),
        requests_each: REQUESTS_EACH,
    };
    let load = run_phase(addr, &budget, &mut streams, closed_loop);
    let rss = peak_rss_mb();

    out.checks.add(
        n64(load.samples.len()),
        failures(&load.samples),
        "HTTP requests",
    );
    let state = shadow_state(&corpus, &streams);
    let stats = service.index.stats();
    let disk = probes::dir_bytes(&service.dir);
    let recovery_s = verify_state(
        &mut out.checks,
        service,
        w,
        mix_,
        &state,
        seed,
        ORACLE_QUERIES,
    );

    let primary = if mix_.primary_is_write {
        OpKind::Upsert
    } else {
        OpKind::Query
    };
    let whole_run_per_s = ratio(fz(load.samples.len()), load.elapsed_s);
    let of_primary = service_us(&load.samples, primary);
    let blocks = blocks(&load.samples, primary, BLOCK, MIN_PER_BLOCK);
    let fast = fastest_tenth(&blocks);
    let fast_p50s: Vec<f64> = fast.iter().filter_map(|b| b.p50_us).collect();
    // A run cut short before its second block ended: the whole run is the block.
    let (fast_per_s, fast_p50_us) = if fast_p50s.is_empty() {
        (whole_run_per_s, percentile(&of_primary, 0.5))
    } else {
        let seconds: f64 = fast.iter().map(|b| fz(BLOCK) / b.per_s).sum();
        (ratio(fz(BLOCK * fast.len()), seconds), median(&fast_p50s))
    };
    out.set("latency_ms", fast_p50_us / 1e3, of_primary.len());
    out.set("throughput_per_s", fast_per_s, load.samples.len());
    out.set("peak_rss_mb", rss, 0);
    out.set("setup_s", fastest(&setup_s), setup_s.len());

    out.detail("blocks", fz(blocks.len()), "count", load.samples.len());
    out.detail(
        "blocks_fastest_tenth",
        fz(fast.len()),
        "count",
        blocks.len(),
    );
    out.detail(
        "block_per_s_best",
        blocks.iter().map(|b| b.per_s).fold(0.0, f64::max),
        "1/s",
        blocks.len(),
    );
    out.detail(
        "block_per_s_median",
        if blocks.is_empty() {
            0.0
        } else {
            median(&blocks.iter().map(|b| b.per_s).collect::<Vec<_>>())
        },
        "1/s",
        blocks.len(),
    );
    out.detail(
        "whole_run_per_s",
        whole_run_per_s,
        "1/s",
        load.samples.len(),
    );
    for (kind, p50, p99) in [
        (OpKind::Query, "query_p50_us", "query_p99_us"),
        (OpKind::Upsert, "upsert_p50_us", "upsert_p99_us"),
    ] {
        let whole_run = service_us(&load.samples, kind);
        if !whole_run.is_empty() {
            out.detail(p50, percentile(&whole_run, 0.5), "us", whole_run.len());
            out.detail(p99, percentile(&whole_run, 0.99), "us", whole_run.len());
        }
    }
    out.detail("recovery_s", fastest(&recovery_s), "s", recovery_s.len());
    out.detail(
        "connects_per_request",
        ratio(f(load.connects), f(load.requests)),
        "ratio",
        idx(load.requests),
    );
    out.detail("live_rankings", fz(stats.live), "count", 0);
    out.detail(
        "disk_bytes_per_live_byte",
        ratio(f(disk), probes::live_bytes(stats.live)),
        "ratio",
        0,
    );
    out
}

/// Request spans of one traced phase: `http.request` from due time to the
/// reply, with `client.connect` and `client.exchange` beneath it.
fn request_spans(samples: &[Sample], offset_ns: u64, first_run_id: u64) -> Vec<Span> {
    let mut spans = Vec::with_capacity(samples.len() * 3);
    for (i, s) in samples.iter().enumerate() {
        let run_id = first_run_id + n64(i);
        let parent = spans.len();
        let connected = s.start_ns() + u64::from(s.connect_ns);
        for (name, start, end, parent) in [
            ("http.request", s.due_ns(), s.end_ns, None),
            ("client.connect", s.start_ns(), connected, Some(parent)),
            ("client.exchange", connected, s.end_ns, Some(parent)),
        ] {
            spans.push(Span {
                name,
                start_ns: offset_ns + start,
                end_ns: offset_ns + end,
                parent,
                run_id,
            });
        }
    }
    spans
}

/// The `--trace 1` run of a serving workload.
fn trace(w: &Workload, mix_: &Mix, seed: u64, scratch: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (corpus, service, _) = set_up(w, mix_, seed, scratch, false);
    out.input_checksum = inputs::checksum(&corpus);
    let addr = service.server.addr();
    // cast(a rate times three seconds: a small non-negative count)
    let per_loop = (mix_.rate_per_s * TRACE_LOOP.as_secs_f64()).ceil() as usize;
    let stream_inputs = StreamInputs::new(&corpus, mix_, seed);
    let mut streams = stream_inputs.streams(seed);
    let budget = ConnectBudget::default();
    let open = Pacing::Open {
        rate_per_s: mix_.rate_per_s,
        requests: per_loop,
    };

    // The same open loop twice: tracing off, then on.
    warm_up(addr, &corpus, seed);
    let untraced = run_phase(addr, &budget, &mut streams, open);
    let offset_ns = tracer.now_ns();
    let traced = run_phase(addr, &budget, &mut streams, open);
    tracer.extend(request_spans(&traced.samples, offset_ns, 0));
    out.checks.add(
        n64(untraced.samples.len() + traced.samples.len()),
        failures(&untraced.samples) + failures(&traced.samples),
        "HTTP requests",
    );
    let primary = if mix_.primary_is_write {
        OpKind::Upsert
    } else {
        OpKind::Query
    };
    open_loop_details(&mut out, &untraced, per_loop, mix_.rate_per_s);
    let p50_untraced = windowed_us(&untraced.samples, primary, 0.5).0;
    let p50_traced = windowed_us(&traced.samples, primary, 0.5).0;
    out.set(
        "trace_overhead_pct",
        (ratio(p50_traced, p50_untraced) - 1.0) * 100.0,
        traced.samples.len(),
    );
    let (in_requests, in_children) = traced.samples.iter().fold((0, 0), |(req, kids), s| {
        (
            req + u64::from(s.since_due_ns),
            kids + u64::from(s.since_start_ns),
        )
    });
    out.set(
        "layers.coverage",
        ratio(f(in_children), f(in_requests)),
        traced.samples.len(),
    );

    // HTTP against in-process, same queries, the state now at rest.
    let probes_in = inputs::probes(&corpus, HTTP_PROBES, mix(seed, 12));
    let requests: Vec<Vec<u8>> = probes_in.iter().map(|q| query_request(q.items())).collect();
    let mut client = Client::new(addr, &budget);
    let mut bytes = 0;
    let mut matches = 0;
    let mut wrong = 0;
    let http_us = tracer.span("http.query_roundtrip", None, 0, |_| {
        probes::each_us(&requests, |raw| {
            let ok = client.request(raw).is_ok_and(|r| r.status == 200);
            wrong += u64::from(!ok);
            bytes += client.body().len();
            matches += parse_count(client.body()).unwrap_or(0);
        })
    });
    let inprocess_us = probes::each_us(&probes_in, |q| {
        std::hint::black_box(service.index.query(q, QUERY_THETA).expect("query"));
    });
    out.set(
        "http.overhead_us",
        percentile(&http_us, 0.5) - percentile(&inprocess_us, 0.5),
        http_us.len(),
    );
    out.set(
        "http.response_bytes_per_match",
        ratio(fz(bytes), f(matches)),
        http_us.len(),
    );
    let absent = render(
        "GET",
        &format!("/rankings/{}", n64(w.n) + 1_000_000_000),
        "",
    );
    let notfound_us = tracer.span("http.notfound_roundtrip", None, 0, |_| {
        probes::each_us(&vec![absent; HTTP_PROBES], |raw| {
            wrong += u64::from(!client.request(raw).is_ok_and(|r| r.status == 404));
        })
    });
    out.set(
        "http.notfound_roundtrip_us",
        percentile(&notfound_us, 0.5),
        notfound_us.len(),
    );
    out.checks
        .add(n64(2 * HTTP_PROBES), wrong, "HTTP probe requests");
    out.set(
        "http.connects_per_request",
        ratio(
            f(untraced.connects + traced.connects + client.connects),
            f(untraced.requests + traced.requests + client.requests),
        ),
        idx(untraced.requests + traced.requests + client.requests),
    );
    out.detail(
        "http_query_p50_us",
        percentile(&http_us, 0.5),
        "us",
        http_us.len(),
    );
    out.detail(
        "inprocess_query_p50_us",
        percentile(&inprocess_us, 0.5),
        "us",
        inprocess_us.len(),
    );
    out.detail(
        "open_loop_p50_untraced_us",
        p50_untraced,
        "us",
        untraced.samples.len(),
    );
    out.detail(
        "open_loop_p50_traced_us",
        p50_traced,
        "us",
        traced.samples.len(),
    );

    let live = service.index.stats().live;
    out.set(
        "wal.disk_bytes_per_live_byte",
        ratio(f(probes::dir_bytes(&service.dir)), probes::live_bytes(live)),
        0,
    );
    let state = shadow_state(&corpus, &streams);
    verify_state(
        &mut out.checks,
        service,
        w,
        mix_,
        &state,
        seed,
        ORACLE_QUERIES / 4,
    );

    // Each layer on its own.
    probes::index(&mut out, tracer, &corpus, w.theta, QUERY_THETA, seed);
    probes::wal(&mut out, tracer, &corpus, &scratch.join("wal-probe"), seed);
    let standalone = open_service(&scratch.join("serving-probe"), w, mix_, &corpus);
    probes::serving(
        &mut out,
        tracer,
        &standalone.index,
        &corpus,
        QUERY_THETA,
        seed,
    );
    drop(standalone);
    probes::rankings(&mut out, tracer, &corpus, QUERY_THETA);
    out
}

/// Runs a serving workload; `scratch` holds its WAL directories.
pub fn run(
    w: &Workload,
    mix_: &Mix,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    trace_on: bool,
    tracer: &Tracer,
) -> Outcome {
    if trace_on {
        trace(w, mix_, seed, scratch, tracer)
    } else {
        measure(w, mix_, seed, seconds, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Profile;
    use crate::workloads::Kind;

    fn tiny_mix() -> Mix {
        Mix {
            query_pct: 50,
            upsert_pct: 40,
            delete_pct: 10,
            rate_per_s: 400.0,
            snapshot_every: 16,
            compact_ratio: 0.1,
            primary_is_write: true,
        }
    }

    fn tiny() -> Workload {
        Workload {
            name: "tiny-serve",
            profile: Profile::Orku,
            n: 500,
            theta: 0.3,
            slots: SLOTS,
            kind: Kind::Serve(tiny_mix()),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topk-benchmark-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// The first `each` requests of every connection's stream.
    fn render_all(corpus: &[Ranking], seed: u64, each: usize) -> Vec<(OpKind, Vec<u8>)> {
        let inputs = StreamInputs::new(corpus, &tiny_mix(), seed);
        let mut streams = inputs.streams(seed);
        streams
            .iter_mut()
            .flat_map(|stream| {
                (0..each)
                    .map(|_| {
                        let (kind, raw) = stream.next();
                        (kind, raw.to_vec())
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn the_request_stream_is_a_function_of_the_seed() {
        let corpus = inputs::corpus(Profile::Orku, 500, 1);
        assert_eq!(render_all(&corpus, 5, 100), render_all(&corpus, 5, 100));
        assert_ne!(render_all(&corpus, 5, 100), render_all(&corpus, 6, 100));
    }

    #[test]
    fn connections_write_only_their_own_ids_and_deletes_are_reinserted() {
        let corpus = inputs::corpus(Profile::Orku, 500, 1);
        let inputs = StreamInputs::new(&corpus, &tiny_mix(), 3);
        let mut streams = inputs.streams(3);
        let mut deletes = 0;
        for stream in &mut streams {
            let mut deleted = None;
            for _ in 0..500 {
                let (kind, raw) = stream.next();
                let text = String::from_utf8(raw.to_vec()).expect("requests are ASCII");
                if let Some(id) = deleted.take() {
                    assert_eq!(kind, OpKind::Upsert);
                    assert!(text.contains(&format!("{{\"id\":{id},")), "{text}");
                }
                if kind == OpKind::Delete {
                    deletes += 1;
                    let target = text.split(' ').nth(1).expect("request target");
                    let id = target.trim_start_matches("/rankings/").to_string();
                    deleted = Some(id);
                }
            }
            assert!(stream
                .written
                .keys()
                .all(|&id| idx(id) % CONNECTIONS == stream.connection));
        }
        assert!(deletes > 50);
        // Every delete but a trailing one was followed by its re-insert.
        let state = shadow_state(&corpus, &streams);
        assert!(state.iter().filter(|s| s.is_none()).count() <= CONNECTIONS);
        assert!(state
            .iter()
            .zip(&corpus)
            .any(|(now, was)| now.as_deref() != Some(was.items())));
    }

    fn sample(kind: OpKind, start_ns: u64, end_ns: u64) -> Sample {
        Sample {
            end_ns,
            since_due_ns: short(end_ns - start_ns),
            since_start_ns: short(end_ns - start_ns),
            connect_ns: 0,
            kind,
            ok: true,
        }
    }

    #[test]
    fn blocks_time_each_stretch_from_the_end_of_the_one_before() {
        // Ten completions a millisecond apart, then ten half a millisecond
        // apart, then a partial block; every request took 100 µs, every
        // fourth is an upsert.
        let mut ends: Vec<u64> = (1..=10).map(|i| i * 1_000_000).collect();
        ends.extend((1..=10).map(|i| 10_000_000 + i * 500_000));
        ends.extend([16_000_000, 17_000_000]);
        let samples: Vec<Sample> = ends
            .iter()
            .enumerate()
            .map(|(i, &end)| {
                let kind = if i % 4 == 0 {
                    OpKind::Upsert
                } else {
                    OpKind::Query
                };
                sample(kind, end - 100_000, end)
            })
            .rev()
            .collect();
        let got = blocks(&samples, OpKind::Query, 10, 5);
        assert_eq!(got.len(), 1, "first and partial block are left out");
        assert!((got[0].per_s - 2_000.0).abs() < 1e-6, "{got:?}");
        assert_eq!(got[0].p50_us, Some(100.0));
        // Too few upserts in the block for a median.
        assert_eq!(blocks(&samples, OpKind::Upsert, 10, 5)[0].p50_us, None);
        assert!(blocks(&samples[..15], OpKind::Query, 10, 5).is_empty());
    }

    #[test]
    fn the_fastest_tenth_is_at_least_one_block() {
        let many: Vec<Block> = (1..=25)
            .map(|i| Block {
                per_s: f64::from(i),
                p50_us: None,
            })
            .collect();
        let rates: Vec<f64> = fastest_tenth(&many).iter().map(|b| b.per_s).collect();
        assert_eq!(rates, [25.0, 24.0, 23.0]);
        assert_eq!(fastest_tenth(&many[..3]).len(), 1);
        assert!(fastest_tenth(&[]).is_empty());
    }

    #[test]
    fn responses_parse() {
        let body = br#"{"theta":0.25,"count":2,"matches":[{"id":7,"raw_distance":3,"distance":0.027},{"id":9,"raw_distance":4,"distance":0.036}]}"#;
        assert_eq!(parse_matches(body), Some(vec![(7, 3), (9, 4)]));
        assert_eq!(parse_count(body), Some(2));
        assert_eq!(parse_matches(b"{}"), None);
        assert_eq!(parse_count(b"{}"), None);
    }

    #[test]
    fn a_tiny_serving_run_checks_out_end_to_end() {
        let dir = scratch("measure");
        let out = measure(&tiny(), &tiny_mix(), 2, 1, &dir);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
        assert!(out.checks.attempted > 300);
        for (name, _) in crate::report::END_TO_END {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn a_tiny_traced_serving_run_reports_every_serving_layer() {
        let dir = scratch("trace");
        let tracer = Tracer::new(true);
        let out = trace(&tiny(), &tiny_mix(), 2, &dir, &tracer);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.messages);
        for name in [
            "index.range_query_us",
            "wal.append_us",
            "wal.replay_s",
            "http.notfound_roundtrip_us",
            "http.connects_per_request",
            "serving.query_p99_under_writer_us",
        ] {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert!(tracer.spans().iter().any(|s| s.name == "http.request"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
