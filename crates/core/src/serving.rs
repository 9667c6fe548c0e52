//! The online serving layer: a long-lived ranking-similarity service over
//! the mutable [`RankingIndex`], with WAL durability and an HTTP surface.
//!
//! The batch joins answer the all-pairs question offline; [`ServingIndex`]
//! answers the *point* question online — "which stored rankings are within
//! θ of this one, right now" — while the corpus itself changes underneath
//! (profile updates arrive, members leave). Three layers:
//!
//! * **State** — a [`RankingIndex`] behind an `RwLock`: concurrent readers
//!   (queries) never block each other, writers (upserts/deletes) are
//!   serialized. Tombstone accumulation is bounded by a compaction rebuild
//!   once [`ServingConfig::compact_ratio`] is exceeded.
//! * **Durability** — every mutation is appended to the write-ahead log
//!   ([`crate::wal`]) *before* it is applied in memory, under one mutex, so
//!   the WAL order equals the apply order and a replay converges to the
//!   exact same state. Snapshots run every
//!   [`ServingConfig::snapshot_every`] records and truncate the log.
//! * **Transport** — [`serving_router`] exposes the service over
//!   `minispark`'s zero-dependency HTTP stack: `POST /rankings` (upsert
//!   batch), `DELETE /rankings/{id}`, `GET /query`, `GET /nearest`,
//!   `GET /rankings/{id}`, `GET /stats` and Prometheus `GET /metrics`.
//!
//! **Lock order** (deadlock discipline, same everywhere): the WAL mutex is
//! acquired *first*, the index lock second. Queries take only the index
//! read lock; mutations take the WAL mutex for their whole span so that
//! log append → index apply is atomic with respect to other mutations.

#![warn(clippy::indexing_slicing)]

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use minispark::{
    Counter, HttpServer, Json, LiveHistogram, Request, Response, Router, TelemetryRegistry,
};
use topk_rankings::distance::max_raw_distance;
use topk_rankings::{ItemId, Ranking, RankingId};

use crate::wal::{WalError, WalRecord, WalStore};
use crate::{JoinError, RankingIndex};

/// The largest ranking id the serving layer accepts: 2^53 − 1, the largest
/// integer that an `f64` tells apart from both neighbours. `/query` and
/// `GET /rankings/<id>` render ids through [`Json::num_u64`] and
/// `POST /rankings` reads them through [`Json::as_u64`], both `f64`; a
/// larger id would be answered with — or stored as — a neighbouring one
/// (2^53 + 1 reads as 2^53). [`ServingIndex::upsert_batch`] and replay in
/// [`ServingIndex::open`] refuse it instead, whichever way it came in.
pub const MAX_SERVED_ID: RankingId = (1 << 53) - 1;

/// Ranking id used for query rankings sent without an explicit `id=`
/// parameter. Range queries exclude self-matches by id, so a stored ranking
/// with this exact id would be invisible to anonymous queries — pick any
/// other id space for stored rankings.
pub const FOREIGN_QUERY_ID: RankingId = RankingId::MAX;

/// Tuning knobs for a serving instance.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Maximum supported query threshold (the index build bound).
    pub theta_max: f64,
    /// Snapshot-and-truncate the WAL after this many logged records.
    /// `0` disables automatic snapshots ([`ServingIndex::snapshot_now`]
    /// still works).
    pub snapshot_every: u64,
    /// Rebuild the index once this fraction of slots are tombstones.
    pub compact_ratio: f64,
}

impl ServingConfig {
    /// Defaults: snapshot every 512 records, compact past 30% tombstones.
    pub fn new(theta_max: f64) -> Self {
        Self {
            theta_max,
            snapshot_every: 512,
            compact_ratio: 0.3,
        }
    }

    /// Overrides the snapshot cadence.
    pub fn with_snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records;
        self
    }

    /// Overrides the compaction trigger ratio.
    pub fn with_compact_ratio(mut self, ratio: f64) -> Self {
        self.compact_ratio = ratio;
        self
    }
}

/// Errors raised by the serving layer.
#[derive(Debug)]
pub enum ServingError {
    /// The request was semantically invalid (bad threshold, mixed ranking
    /// lengths, …).
    Join(JoinError),
    /// The durability layer failed.
    Wal(WalError),
    /// A ranking id above [`MAX_SERVED_ID`]: answers render ids as JSON
    /// numbers, which would silently round it to a neighbouring id.
    IdNotRenderable(RankingId),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Join(e) => write!(f, "{e}"),
            ServingError::Wal(e) => write!(f, "{e}"),
            ServingError::IdNotRenderable(id) => write!(
                f,
                "ranking id {id} is above 2^53 - 1 ({MAX_SERVED_ID}) and cannot be carried \
                 exactly by a JSON number"
            ),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<JoinError> for ServingError {
    fn from(e: JoinError) -> Self {
        ServingError::Join(e)
    }
}

impl From<WalError> for ServingError {
    fn from(e: WalError) -> Self {
        ServingError::Wal(e)
    }
}

/// What [`ServingIndex::open`] recovered from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Rankings restored from the snapshot file.
    pub snapshot_rankings: usize,
    /// WAL records applied on top of the snapshot.
    pub wal_records: usize,
    /// Bytes dropped from a torn WAL tail (0 after a clean shutdown).
    pub dropped_bytes: usize,
}

/// Result of one upsert batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpsertOutcome {
    /// Rankings whose id was new to the index.
    pub inserted: usize,
    /// Rankings that replaced an existing live version.
    pub replaced: usize,
}

/// A point-in-time view of the serving state, for `/stats` and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingStats {
    /// Live rankings.
    pub live: usize,
    /// Total slots including tombstones.
    pub slots: usize,
    /// Tombstoned slots awaiting compaction.
    pub tombstones: usize,
    /// `tombstones / slots` (0 while empty).
    pub tombstone_ratio: f64,
    /// The (fixed) ranking length, 0 while empty.
    pub k: usize,
    /// The maximum supported query threshold.
    pub theta_max: f64,
    /// Whether a WAL backs this instance.
    pub durable: bool,
    /// Records logged since the last snapshot (0 when not durable).
    pub wal_records_since_snapshot: u64,
    /// Current WAL size in bytes (0 when not durable).
    pub wal_bytes: u64,
}

/// The serving index: a [`RankingIndex`] with durable, concurrent mutation.
///
/// Cheap to share: wrap in an [`Arc`] and hand clones to the router and any
/// background threads.
pub struct ServingIndex {
    config: ServingConfig,
    /// Lock order: this mutex FIRST, `index` second — everywhere.
    wal: Mutex<Option<WalStore>>,
    index: RwLock<RankingIndex>,
    telemetry: TelemetryRegistry,
    query_seconds: LiveHistogram,
    upsert_seconds: LiveHistogram,
    delete_seconds: LiveHistogram,
    queries: Counter,
    upserts: Counter,
    deletes: Counter,
    compactions: Counter,
    snapshots: Counter,
}

impl ServingIndex {
    fn with_parts(config: ServingConfig, wal: Option<WalStore>, index: RankingIndex) -> Self {
        let telemetry = TelemetryRegistry::enabled();
        Self {
            query_seconds: telemetry.histogram("serving_query_seconds"),
            upsert_seconds: telemetry.histogram("serving_upsert_seconds"),
            delete_seconds: telemetry.histogram("serving_delete_seconds"),
            queries: telemetry.counter("serving_queries_total"),
            upserts: telemetry.counter("serving_upserts_total"),
            deletes: telemetry.counter("serving_deletes_total"),
            compactions: telemetry.counter("serving_compactions_total"),
            snapshots: telemetry.counter("serving_snapshots_total"),
            telemetry,
            config,
            wal: Mutex::new(wal),
            index: RwLock::new(index),
        }
    }

    /// An in-memory-only instance (no WAL, nothing survives a restart).
    /// Useful for tests and benchmarks.
    pub fn ephemeral(config: ServingConfig) -> Result<Self, ServingError> {
        let index = RankingIndex::build(&[], config.theta_max)?;
        Ok(Self::with_parts(config, None, index))
    }

    /// Opens (creating if needed) a durable instance rooted at `dir`,
    /// replaying the snapshot and WAL into memory. After a crash mid-WAL,
    /// the torn tail is dropped (reported in [`ReplayStats`]) and every
    /// intact record is recovered.
    pub fn open(dir: &Path, config: ServingConfig) -> Result<(Self, ReplayStats), ServingError> {
        let (store, replay) = WalStore::open(dir)?;
        check_ids(&replay.snapshot)?;
        let mut index = RankingIndex::build(&replay.snapshot, config.theta_max)?;
        for record in &replay.records {
            apply_record(&mut index, record)?;
        }
        let stats = ReplayStats {
            snapshot_rankings: replay.snapshot.len(),
            wal_records: replay.records.len(),
            dropped_bytes: replay.dropped_bytes,
        };
        Ok((Self::with_parts(config, Some(store), index), stats))
    }

    /// The registry the serving histograms and counters live in — hand it
    /// to a metrics endpoint or scrape it directly.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// Insert-or-replace a batch of rankings as one durable record.
    ///
    /// The whole batch is validated against the index's ranking length
    /// *before* anything is logged or applied, so a rejected batch leaves
    /// both the WAL and the index untouched. Ids above [`MAX_SERVED_ID`] are
    /// refused the same way.
    pub fn upsert_batch(&self, batch: &[Ranking]) -> Result<UpsertOutcome, ServingError> {
        let start = Instant::now();
        check_ids(batch)?;
        // locks(lock order: WAL mutex first, index lock second — everywhere; the guard spans append+apply so WAL order equals apply order)
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        {
            // locks(nested by design: WAL mutex → index read lock is the global lock order; validation must see the state the apply will see)
            let index = self.index.read().unwrap_or_else(PoisonError::into_inner);
            let mut k = (index.k() > 0).then(|| index.k());
            for r in batch {
                match k {
                    Some(expected) if r.k() != expected => {
                        return Err(JoinError::MixedRankingLengths {
                            expected,
                            found: r.k(),
                        }
                        .into());
                    }
                    Some(_) => {}
                    None => k = Some(r.k()),
                }
            }
        }
        if let Some(store) = wal.as_mut() {
            store.append(&WalRecord::Upsert(batch.to_vec()))?;
        }
        let outcome = {
            // locks(nested by design: WAL mutex → index write lock is the global lock order)
            let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
            // Cannot fail: lengths were validated above against the same
            // state, and no other writer ran in between (the WAL mutex is
            // still held).
            let outcome = apply_upsert(&mut index, batch)?;
            self.maintain(&mut wal, &mut index)?;
            outcome
        };
        self.upserts.inc();
        self.upsert_seconds.record_duration(start.elapsed());
        Ok(outcome)
    }

    /// Deletes `id`. Returns whether it was present; absent ids are not
    /// logged (so delete floods of unknown ids cannot grow the WAL).
    pub fn delete(&self, id: RankingId) -> Result<bool, ServingError> {
        let start = Instant::now();
        // locks(lock order: WAL mutex first, index lock second — everywhere; the guard spans append+apply so WAL order equals apply order)
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        // locks(nested by design: WAL mutex → index read lock is the global lock order; temp guard for the presence check)
        let present = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_id(id);
        if !present {
            return Ok(false);
        }
        if let Some(store) = wal.as_mut() {
            store.append(&WalRecord::Delete(id))?;
        }
        {
            // locks(nested by design: WAL mutex → index write lock is the global lock order)
            let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
            let removed = index.remove_ranking(id);
            debug_assert!(removed, "presence was checked under the same WAL guard");
            self.maintain(&mut wal, &mut index)?;
        }
        self.deletes.inc();
        self.delete_seconds.record_duration(start.elapsed());
        Ok(true)
    }

    /// All stored rankings within normalized Footrule distance `theta` of
    /// `query`, sorted by distance then id. `theta` must be ≤ the build
    /// threshold ([`ServingConfig::theta_max`]).
    pub fn query(&self, query: &Ranking, theta: f64) -> Result<Vec<(u64, u64)>, ServingError> {
        let start = Instant::now();
        let results = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .range_query(query, theta)?;
        self.queries.inc();
        self.query_seconds.record_duration(start.elapsed());
        Ok(results)
    }

    /// The `n` nearest stored rankings within `theta_max` of `query` (see
    /// [`RankingIndex::nearest`] for the bound's meaning).
    pub fn nearest(&self, query: &Ranking, n: usize) -> Result<Vec<(u64, u64)>, ServingError> {
        let start = Instant::now();
        let results = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .nearest(query, n)?;
        self.queries.inc();
        self.query_seconds.record_duration(start.elapsed());
        Ok(results)
    }

    /// The current live version of `id`, if stored.
    pub fn get(&self, id: RankingId) -> Option<Ranking> {
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
    }

    /// Number of live rankings.
    pub fn len(&self) -> usize {
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no live rankings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent stats snapshot (index and WAL observed under the
    /// mutation lock, so the two never disagree).
    pub fn stats(&self) -> ServingStats {
        // locks(lock order: WAL mutex first, index lock second — stats must observe both consistently)
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        // locks(nested by design: WAL mutex → index read lock is the global lock order)
        let index = self.index.read().unwrap_or_else(PoisonError::into_inner);
        ServingStats {
            live: index.len(),
            slots: index.slot_count(),
            tombstones: index.tombstone_count(),
            tombstone_ratio: index.tombstone_ratio(),
            k: index.k(),
            theta_max: index.theta_max(),
            durable: wal.is_some(),
            wal_records_since_snapshot: wal.as_ref().map_or(0, WalStore::records_since_snapshot),
            wal_bytes: wal.as_ref().map_or(0, WalStore::wal_bytes),
        }
    }

    /// Forces a snapshot-and-truncate cycle now (no-op when not durable).
    pub fn snapshot_now(&self) -> Result<(), ServingError> {
        // locks(lock order: WAL mutex first, index lock second — the snapshot must capture the exact logged state)
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(store) = wal.as_mut() {
            // locks(nested by design: WAL mutex → index read lock is the global lock order)
            let live = self
                .index
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .live_rankings();
            store.snapshot(&live)?;
            self.snapshots.inc();
        }
        Ok(())
    }

    /// Fsyncs the WAL (see [`WalStore::sync`]); no-op when not durable.
    pub fn sync(&self) -> Result<(), ServingError> {
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(store) = wal.as_ref() {
            store.sync()?;
        }
        Ok(())
    }

    /// Compaction + snapshot triggers, run at the end of every mutation
    /// while both guards are still held.
    fn maintain(
        &self,
        wal: &mut Option<WalStore>,
        index: &mut RankingIndex,
    ) -> Result<(), ServingError> {
        if index.tombstone_count() > 0 && index.tombstone_ratio() >= self.config.compact_ratio {
            *index = index.compacted()?;
            self.compactions.inc();
        }
        if let Some(store) = wal.as_mut() {
            if self.config.snapshot_every > 0
                && store.records_since_snapshot() >= self.config.snapshot_every
            {
                store.snapshot(&index.live_rankings())?;
                self.snapshots.inc();
            }
        }
        Ok(())
    }
}

/// Applies one upsert batch to the index — the one code path for live
/// upserts and replayed ones, so both reach the identical state.
///
/// An index without slots is *built* from its first batch: the canonical
/// item order is frozen when the index is created, and an index created
/// empty ranks every item as equally rare, probing far longer posting lists
/// than it needs to until the next compaction or restart rebuilds it. That
/// still holds for an index seeded by a trickle of single-ranking upserts —
/// only the first of them can set the order; such a deployment relies on
/// compaction (or a restart) to learn the real frequencies.
fn apply_upsert(index: &mut RankingIndex, batch: &[Ranking]) -> Result<UpsertOutcome, JoinError> {
    if index.slot_count() == 0 {
        *index = match RankingIndex::build(batch, index.theta_max()) {
            // `build` takes each id once; an upsert keeps the last version.
            Err(JoinError::DuplicateRankingId(_)) => {
                RankingIndex::build(&last_versions(batch), index.theta_max())?
            }
            built => built?,
        };
        return Ok(UpsertOutcome {
            inserted: index.len(),
            replaced: batch.len() - index.len(),
        });
    }
    let mut outcome = UpsertOutcome {
        inserted: 0,
        replaced: 0,
    };
    for r in batch {
        if index.contains_id(r.id()) {
            outcome.replaced += 1;
        } else {
            outcome.inserted += 1;
        }
        index.insert_ranking(r)?;
    }
    Ok(outcome)
}

/// The batch without the versions a later entry of the same id replaces.
fn last_versions(batch: &[Ranking]) -> Vec<Ranking> {
    let last_at: HashMap<RankingId, usize> = batch
        .iter()
        .enumerate()
        .map(|(at, r)| (r.id(), at))
        .collect();
    batch
        .iter()
        .enumerate()
        .filter(|&(at, r)| last_at.get(&r.id()) == Some(&at))
        .map(|(_, r)| r.clone())
        .collect()
}

/// Refuses the first ranking of `rankings` whose id JSON cannot carry.
fn check_ids(rankings: &[Ranking]) -> Result<(), ServingError> {
    match rankings.iter().find(|r| r.id() > MAX_SERVED_ID) {
        Some(r) => Err(ServingError::IdNotRenderable(r.id())),
        None => Ok(()),
    }
}

/// Applies one replayed WAL record to the index (replay-time mirror of the
/// live mutation paths).
fn apply_record(index: &mut RankingIndex, record: &WalRecord) -> Result<(), ServingError> {
    match record {
        WalRecord::Upsert(rankings) => {
            check_ids(rankings)?;
            apply_upsert(index, rankings)?;
        }
        WalRecord::Delete(id) => {
            index.remove_ranking(*id);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

fn json_error(status: u16, message: &str) -> Response {
    Response::json(status, &Json::obj().with("error", Json::str(message)))
}

/// Parses one `{"id": .., "items": [..]}` object into a [`Ranking`].
fn ranking_from_json(doc: &Json) -> Result<Ranking, String> {
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("each ranking needs a numeric \"id\"")?;
    let items_json = doc
        .get("items")
        .and_then(Json::as_arr)
        .ok_or("each ranking needs an \"items\" array")?;
    let mut items = Vec::with_capacity(items_json.len());
    for v in items_json {
        let item = v
            .as_u64()
            .and_then(|n| ItemId::try_from(n).ok())
            .ok_or("items must be u32 item ids")?;
        items.push(item);
    }
    Ranking::new(id, items).map_err(|e| format!("ranking {id}: {e}"))
}

/// Parses the `POST /rankings` body: either a bare array of ranking
/// objects or `{"rankings": [..]}`.
fn batch_from_body(body: &str) -> Result<Vec<Ranking>, String> {
    let doc = Json::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    let arr = match doc.as_arr() {
        Some(arr) => arr,
        None => doc
            .get("rankings")
            .and_then(Json::as_arr)
            .ok_or("body must be a JSON array of rankings or {\"rankings\": [..]}")?,
    };
    let mut batch = Vec::with_capacity(arr.len());
    for doc in arr {
        batch.push(ranking_from_json(doc)?);
    }
    Ok(batch)
}

/// Parses a comma-separated item list (`items=3,1,4`) into a query ranking
/// with the given (or anonymous) id.
fn query_ranking(req: &Request) -> Result<Ranking, String> {
    let items_param = req
        .query("items")
        .ok_or("missing \"items\" query parameter (comma-separated item ids)")?;
    let items: Result<Vec<ItemId>, _> = items_param.split(',').map(str::parse).collect();
    let items = items.map_err(|e| format!("bad item id in \"items\": {e}"))?;
    let id = match req.query("id") {
        Some(raw) => raw
            .parse::<RankingId>()
            .map_err(|e| format!("bad \"id\": {e}"))?,
        None => FOREIGN_QUERY_ID,
    };
    Ranking::new(id, items).map_err(|e| e.to_string())
}

/// Renders `(id, raw distance)` matches with normalized distances.
fn matches_json(results: &[(u64, u64)], k: usize) -> Json {
    let max_raw = max_raw_distance(k);
    let arr = results
        .iter()
        .map(|&(id, d)| {
            #[expect(
                clippy::cast_precision_loss,
                reason = "raw Footrule distances are far below 2^53 — exact in f64"
            )]
            let normalized = if max_raw == 0 {
                0.0
            } else {
                d as f64 / max_raw as f64
            };
            Json::obj()
                .with("id", Json::num_u64(id))
                .with("raw_distance", Json::num_u64(d))
                .with("distance", Json::num(normalized))
        })
        .collect();
    Json::Arr(arr)
}

fn serving_error_response(err: &ServingError) -> Response {
    match err {
        ServingError::Join(_) | ServingError::IdNotRenderable(_) => {
            json_error(400, &err.to_string())
        }
        ServingError::Wal(e) => json_error(500, &e.to_string()),
    }
}

fn handle_upsert(service: &ServingIndex, req: &Request) -> Response {
    let Some(body) = req.body_str() else {
        return json_error(400, "body is not UTF-8");
    };
    let batch = match batch_from_body(body) {
        Ok(batch) => batch,
        Err(message) => return json_error(400, &message),
    };
    match service.upsert_batch(&batch) {
        Ok(outcome) => Response::json(
            200,
            &Json::obj()
                .with("inserted", Json::num_usize(outcome.inserted))
                .with("replaced", Json::num_usize(outcome.replaced)),
        ),
        Err(e) => serving_error_response(&e),
    }
}

fn handle_delete(service: &ServingIndex, req: &Request) -> Response {
    let Some(id) = req
        .param("id")
        .and_then(|raw| raw.parse::<RankingId>().ok())
    else {
        return json_error(400, "the path id must be a u64 ranking id");
    };
    match service.delete(id) {
        Ok(true) => Response::json(200, &Json::obj().with("deleted", Json::Bool(true))),
        Ok(false) => json_error(404, "no such ranking id"),
        Err(e) => serving_error_response(&e),
    }
}

fn handle_get(service: &ServingIndex, req: &Request) -> Response {
    let Some(id) = req
        .param("id")
        .and_then(|raw| raw.parse::<RankingId>().ok())
    else {
        return json_error(400, "the path id must be a u64 ranking id");
    };
    match service.get(id) {
        Some(ranking) => {
            let items = ranking.items().iter().map(|&i| Json::num(i)).collect();
            Response::json(
                200,
                &Json::obj()
                    .with("id", Json::num_u64(ranking.id()))
                    .with("items", Json::Arr(items)),
            )
        }
        None => json_error(404, "no such ranking id"),
    }
}

fn handle_query(service: &ServingIndex, req: &Request) -> Response {
    let Some(theta) = req.query("theta").and_then(|raw| raw.parse::<f64>().ok()) else {
        return json_error(400, "missing or malformed \"theta\" query parameter");
    };
    let query = match query_ranking(req) {
        Ok(q) => q,
        Err(message) => return json_error(400, &message),
    };
    match service.query(&query, theta) {
        Ok(results) => Response::json(
            200,
            &Json::obj()
                .with("theta", Json::num(theta))
                .with("count", Json::num_usize(results.len()))
                .with("matches", matches_json(&results, query.k())),
        ),
        Err(e) => serving_error_response(&e),
    }
}

fn handle_nearest(service: &ServingIndex, req: &Request) -> Response {
    let n = match req.query("n") {
        Some(raw) => match raw.parse::<usize>() {
            // `n` is echoed as a JSON number, like an id.
            Ok(n) if u64::try_from(n).is_ok_and(|n| n <= MAX_SERVED_ID) => n,
            Ok(_) => return json_error(400, "\"n\" must be at most 2^53 - 1"),
            Err(e) => return json_error(400, &format!("bad \"n\": {e}")),
        },
        None => 10,
    };
    let query = match query_ranking(req) {
        Ok(q) => q,
        Err(message) => return json_error(400, &message),
    };
    match service.nearest(&query, n) {
        Ok(results) => Response::json(
            200,
            &Json::obj()
                .with("n", Json::num_usize(n))
                .with("count", Json::num_usize(results.len()))
                .with("matches", matches_json(&results, query.k())),
        ),
        Err(e) => serving_error_response(&e),
    }
}

fn handle_stats(service: &ServingIndex) -> Response {
    let stats = service.stats();
    Response::json(
        200,
        &Json::obj()
            .with("live", Json::num_usize(stats.live))
            .with("slots", Json::num_usize(stats.slots))
            .with("tombstones", Json::num_usize(stats.tombstones))
            .with("tombstone_ratio", Json::num(stats.tombstone_ratio))
            .with("k", Json::num_usize(stats.k))
            .with("theta_max", Json::num(stats.theta_max))
            .with("durable", Json::Bool(stats.durable))
            .with(
                "wal_records_since_snapshot",
                Json::num_u64(stats.wal_records_since_snapshot),
            )
            .with("wal_bytes", Json::num_u64(stats.wal_bytes)),
    )
}

/// Builds the serving [`Router`]:
///
/// | Route | Meaning |
/// |---|---|
/// | `POST /rankings` | upsert a JSON batch |
/// | `DELETE /rankings/{id}` | delete one id (404 when absent) |
/// | `GET /rankings/{id}` | fetch the live version of one id |
/// | `GET /query?theta=0.2&items=3,1,4[&id=7]` | θ range query |
/// | `GET /nearest?items=3,1,4[&n=5][&id=7]` | n nearest within θ_max |
/// | `GET /stats` | index + WAL state |
/// | `GET /metrics` | Prometheus exposition of the serving telemetry |
pub fn serving_router(service: Arc<ServingIndex>) -> Router {
    let mut router = Router::new();
    let svc = Arc::clone(&service);
    router.route("POST", "/rankings", move |req| handle_upsert(&svc, req));
    let svc = Arc::clone(&service);
    router.route("DELETE", "/rankings/{id}", move |req| {
        handle_delete(&svc, req)
    });
    let svc = Arc::clone(&service);
    router.route("GET", "/rankings/{id}", move |req| handle_get(&svc, req));
    let svc = Arc::clone(&service);
    router.route("GET", "/query", move |req| handle_query(&svc, req));
    let svc = Arc::clone(&service);
    router.route("GET", "/nearest", move |req| handle_nearest(&svc, req));
    let svc = Arc::clone(&service);
    router.route("GET", "/stats", move |_| handle_stats(&svc));
    let svc = Arc::clone(&service);
    router.route("GET", "/metrics", move |_| {
        Response::with_content_type(
            200,
            "text/plain; version=0.0.4",
            svc.telemetry().snapshot().prometheus(),
        )
    });
    router
}

/// A running serving HTTP server (acceptor + worker pool); stops on drop.
pub struct ServingServer {
    inner: HttpServer,
}

impl ServingServer {
    /// Binds `port` (0 picks an ephemeral port) and serves `service` with
    /// `workers` handler threads.
    pub fn start(port: u16, service: Arc<ServingIndex>, workers: usize) -> std::io::Result<Self> {
        let inner = HttpServer::start(port, serving_router(service), workers)?;
        Ok(Self { inner })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.inner.addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "topk-serving-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ranking(id: u64, items: [u32; 5]) -> Ranking {
        Ranking::new(id, items.to_vec()).expect("distinct items")
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn http(addr: std::net::SocketAddr, head: &str, body: Option<&str>) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = body.unwrap_or("");
        let request = format!(
            "{head} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        );
        stream.write_all(request.as_bytes()).expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn upsert_query_delete_round_trip() -> TestResult {
        let service = ServingIndex::ephemeral(ServingConfig::new(0.4))?;
        let outcome = service.upsert_batch(&[
            ranking(1, [1, 2, 3, 4, 5]),
            ranking(2, [2, 1, 3, 4, 5]),
            ranking(3, [9, 8, 7, 6, 5]),
        ])?;
        assert_eq!(outcome.inserted, 3);
        assert_eq!(outcome.replaced, 0);

        let near_one = service.query(&ranking(100, [1, 2, 3, 4, 5]), 0.2)?;
        assert_eq!(near_one.first(), Some(&(1, 0)));
        assert!(near_one.iter().any(|&(id, _)| id == 2));

        assert!(service.delete(1)?);
        assert!(!service.delete(1)?);
        let after = service.query(&ranking(100, [1, 2, 3, 4, 5]), 0.2)?;
        assert!(after.iter().all(|&(id, _)| id != 1));
        assert_eq!(service.len(), 2);
        Ok(())
    }

    #[test]
    fn upsert_replaces_and_counts() -> TestResult {
        let service = ServingIndex::ephemeral(ServingConfig::new(0.4))?;
        service.upsert_batch(&[ranking(7, [1, 2, 3, 4, 5])])?;
        let outcome = service.upsert_batch(&[ranking(7, [9, 8, 7, 6, 5])])?;
        assert_eq!(outcome.replaced, 1);
        assert_eq!(service.len(), 1);
        // The old version never matches.
        let old = service.query(&ranking(100, [1, 2, 3, 4, 5]), 0.1)?;
        assert!(old.is_empty());
        let new = service.query(&ranking(100, [9, 8, 7, 6, 5]), 0.1)?;
        assert_eq!(new, vec![(7, 0)]);
        Ok(())
    }

    #[test]
    fn invalid_batches_touch_nothing() -> TestResult {
        let dir = temp_dir("atomic");
        let (service, _) = ServingIndex::open(&dir, ServingConfig::new(0.4))?;
        service.upsert_batch(&[ranking(1, [1, 2, 3, 4, 5])])?;
        let wal_before = service.stats().wal_records_since_snapshot;
        // Second ranking has the wrong length: whole batch rejected.
        let bad = vec![ranking(2, [2, 1, 3, 4, 5]), Ranking::new(3, vec![1, 2, 3])?];
        let err = service.upsert_batch(&bad).expect_err("mixed lengths");
        assert!(matches!(
            err,
            ServingError::Join(JoinError::MixedRankingLengths { .. })
        ));
        assert_eq!(service.len(), 1);
        assert!(service.get(2).is_none());
        assert_eq!(service.stats().wal_records_since_snapshot, wal_before);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn restart_replays_to_the_same_state() -> TestResult {
        let dir = temp_dir("restart");
        let config = ServingConfig::new(0.4).with_snapshot_every(3);
        {
            let (service, replay) = ServingIndex::open(&dir, config.clone())?;
            assert_eq!(
                replay,
                ReplayStats {
                    snapshot_rankings: 0,
                    wal_records: 0,
                    dropped_bytes: 0
                }
            );
            service.upsert_batch(&[ranking(1, [1, 2, 3, 4, 5]), ranking(2, [2, 1, 3, 4, 5])])?;
            service.upsert_batch(&[ranking(3, [9, 8, 7, 6, 5])])?;
            service.delete(2)?;
            // snapshot_every=3 has triggered by now; keep writing past it.
            service.upsert_batch(&[ranking(1, [5, 4, 3, 2, 1])])?;
        }
        let (service, replay) = ServingIndex::open(&dir, config)?;
        assert!(replay.snapshot_rankings > 0 || replay.wal_records > 0);
        assert_eq!(service.len(), 2);
        assert_eq!(service.get(1), Some(ranking(1, [5, 4, 3, 2, 1])));
        assert_eq!(service.get(2), None);
        assert_eq!(service.get(3), Some(ranking(3, [9, 8, 7, 6, 5])));
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    /// Candidates the index probes, and the answers it gives, over a fixed
    /// set of stored rankings used as queries.
    fn probe_cost(service: &ServingIndex, probes: &[Ranking]) -> (u64, Vec<Vec<(u64, u64)>>) {
        let index = service.index.read().expect("index lock");
        let stats = crate::stats::JoinStats::default();
        let answers = probes
            .iter()
            .map(|q| {
                index
                    .range_query_with_stats(q, 0.2, &stats)
                    .expect("query within theta_max")
            })
            .collect();
        (stats.snapshot().candidates, answers)
    }

    #[test]
    fn first_batch_seeds_the_frequency_order() -> TestResult {
        // Regression: an index created empty froze an empty frequency table,
        // so a corpus seeded through `upsert_batch` probed posting lists as
        // if every item were equally rare (80x the query time on 50k
        // rankings) until its first restart or compaction.
        let corpus = topk_datagen::CorpusProfile::orku_like(5_000, 10).generate();
        let probes: Vec<Ranking> = corpus.iter().step_by(50).cloned().collect();
        let dir = temp_dir("seeded-order");
        let config = ServingConfig::new(0.3).with_snapshot_every(0);

        let ephemeral = ServingIndex::ephemeral(config.clone())?;
        let outcome = ephemeral.upsert_batch(&corpus)?;
        assert_eq!((outcome.inserted, outcome.replaced), (corpus.len(), 0));
        let (durable, _) = ServingIndex::open(&dir, config.clone())?;
        durable.upsert_batch(&corpus)?;
        let seeded = probe_cost(&ephemeral, &probes);
        assert_eq!(probe_cost(&durable, &probes), seeded);
        drop(durable);

        // Replayed from the WAL, then rebuilt from a snapshot: the same
        // order, so the same candidates — and the same answers.
        let (replayed, replay) = ServingIndex::open(&dir, config.clone())?;
        assert_eq!((replay.snapshot_rankings, replay.wal_records), (0, 1));
        assert_eq!(probe_cost(&replayed, &probes), seeded);
        replayed.snapshot_now()?;
        drop(replayed);
        let (rebuilt, replay) = ServingIndex::open(&dir, config.clone())?;
        assert_eq!(
            (replay.snapshot_rankings, replay.wal_records),
            (corpus.len(), 0)
        );
        assert_eq!(probe_cost(&rebuilt, &probes), seeded);

        // What the bug cost: the same corpus over a frozen empty order.
        let mut frozen = RankingIndex::build(&[], config.theta_max)?;
        for r in &corpus {
            frozen.insert_ranking(r)?;
        }
        let stats = crate::stats::JoinStats::default();
        for (q, want) in probes.iter().zip(&seeded.1) {
            assert_eq!(&frozen.range_query_with_stats(q, 0.2, &stats)?, want);
        }
        assert!(
            stats.snapshot().candidates > 4 * seeded.0,
            "frozen-empty order probes {} candidates, seeded order {}",
            stats.snapshot().candidates,
            seeded.0
        );
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn ids_repeated_in_the_first_batch_count_as_replaced() -> TestResult {
        let service = ServingIndex::ephemeral(ServingConfig::new(0.4))?;
        let outcome = service.upsert_batch(&[
            ranking(1, [1, 2, 3, 4, 5]),
            ranking(2, [2, 1, 3, 4, 5]),
            ranking(1, [9, 8, 7, 6, 5]),
        ])?;
        assert_eq!((outcome.inserted, outcome.replaced), (2, 1));
        assert_eq!(service.get(1), Some(ranking(1, [9, 8, 7, 6, 5])));
        Ok(())
    }

    #[test]
    fn compaction_triggers_past_the_ratio() -> TestResult {
        let service = ServingIndex::ephemeral(
            ServingConfig::new(0.4)
                .with_compact_ratio(0.5)
                .with_snapshot_every(0),
        )?;
        for id in 0..10u64 {
            let first = id as u32 * 10;
            service.upsert_batch(&[Ranking::new(id, (first..first + 5).collect())?])?;
        }
        for id in 0..5u64 {
            service.delete(id)?;
        }
        let stats = service.stats();
        // 5 of 15 slots would be tombstones without compaction; the 0.5
        // trigger fired along the way and rebuilt.
        assert!(stats.tombstone_ratio < 0.5, "{stats:?}");
        assert_eq!(stats.live, 5);
        Ok(())
    }

    #[test]
    fn http_surface_round_trips() -> TestResult {
        let service = Arc::new(ServingIndex::ephemeral(ServingConfig::new(0.4))?);
        let server = ServingServer::start(0, Arc::clone(&service), 2)?;
        let addr = server.addr();

        let (status, body) = http(
            addr,
            "POST /rankings",
            Some(r#"[{"id": 1, "items": [1, 2, 3, 4, 5]}, {"id": 2, "items": [2, 1, 3, 4, 5]}]"#),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"inserted\":2"), "{body}");

        let (status, body) = http(addr, "GET /query?theta=0.2&items=1,2,3,4,5", None);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"id\":1"), "{body}");

        let (status, body) = http(addr, "GET /rankings/2", None);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"items\""), "{body}");

        let (status, _) = http(addr, "DELETE /rankings/2", None);
        assert_eq!(status, 200);
        let (status, _) = http(addr, "DELETE /rankings/2", None);
        assert_eq!(status, 404);

        let (status, body) = http(addr, "GET /nearest?items=1,2,3,4,5&n=1", None);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"count\":1"), "{body}");

        let (status, body) = http(addr, "GET /stats", None);
        assert_eq!(status, 200);
        assert!(body.contains("\"live\":1"), "{body}");

        let (status, body) = http(addr, "GET /metrics", None);
        assert_eq!(status, 200);
        assert!(body.contains("serving_upserts_total"), "{body}");

        // Malformed inputs are 400s, not panics.
        let (status, _) = http(addr, "POST /rankings", Some("not json"));
        assert_eq!(status, 400);
        let (status, _) = http(addr, "GET /query?theta=abc&items=1,2,3,4,5", None);
        assert_eq!(status, 400);
        let (status, _) = http(addr, "GET /query?theta=0.2&items=1,1,1", None);
        assert_eq!(status, 400);
        let (status, _) = http(addr, "DELETE /rankings/not-a-number", None);
        assert_eq!(status, 400);
        Ok(())
    }

    #[test]
    fn query_theta_above_build_bound_is_rejected() -> TestResult {
        let service = ServingIndex::ephemeral(ServingConfig::new(0.2))?;
        service.upsert_batch(&[ranking(1, [1, 2, 3, 4, 5])])?;
        let err = service
            .query(&ranking(100, [1, 2, 3, 4, 5]), 0.9)
            .expect_err("θ beyond theta_max");
        assert!(matches!(
            err,
            ServingError::Join(JoinError::ThresholdAboveIndexBound { .. })
        ));
        let message = err.to_string();
        assert!(
            message.contains("0.9") && message.contains("theta_max = 0.2"),
            "{message}"
        );
        assert!(!message.contains("[0, 1]"), "{message}");
        Ok(())
    }
}
