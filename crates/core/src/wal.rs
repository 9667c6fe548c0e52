//! Write-ahead log and snapshot store for the online serving layer.
//!
//! The serving index ([`crate::serving`]) keeps its authoritative state in
//! memory; this module makes that state survive restarts. Two files live in
//! the store directory:
//!
//! * **`wal.log`** — an append-only sequence of *frames*, one per mutation
//!   ([`WalRecord`]): `[payload_len: u32 LE][crc32: u32 LE][payload]`, the
//!   payload being the record in the shuffle codec's byte format
//!   ([`minispark::codec`]: fixed-width little-endian integers,
//!   length-prefixed sequences). The CRC makes torn tails detectable: a
//!   frame cut short by a crash fails the length or checksum test and the
//!   replay stops there, dropping the tail — every fully-written frame
//!   before it is recovered.
//! * **`snapshot.bin`** — a checksummed dump of the full live state, written
//!   via temp-file-then-rename so a crash mid-snapshot leaves the previous
//!   snapshot intact (rename is atomic on POSIX).
//!
//! The snapshot cycle is *snapshot-then-truncate*: the new snapshot is
//! written, synced and renamed into place **before** `wal.log` is truncated.
//! A crash between the two steps leaves WAL records that are already
//! reflected in the snapshot — harmless, because both record kinds are
//! idempotent to re-apply (an upsert replaces, a delete of a missing id is a
//! no-op). Replay therefore always applies the snapshot first and the full
//! WAL on top.
//!
//! Durability scope: `append` issues a complete `write_all` per record, so
//! state survives any process exit (panic, kill, restart). Surviving an OS
//! crash or power loss additionally needs [`WalStore::sync`] (fsync), which
//! callers can invoke at the cadence their durability budget allows;
//! snapshots are always fsynced before the rename.

#![warn(clippy::indexing_slicing)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use minispark::Codec;
use topk_rankings::{ItemId, Ranking, RankingId};

/// File name of the append-only log inside the store directory.
const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside the store directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temp name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.bin.tmp";
/// Magic prefix identifying (and versioning) the snapshot format.
const SNAPSHOT_MAGIC: &[u8; 8] = b"TKSJSNP1";

/// Record tag bytes (the first payload byte of every WAL frame).
const TAG_UPSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// Errors raised by the WAL store.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file IO failed.
    Io(io::Error),
    /// A checksum-valid region decoded to garbage, or the snapshot file is
    /// malformed. Unlike a torn tail (which replay drops silently and
    /// reports via [`WalReplay::dropped_bytes`]), this is real corruption:
    /// the bytes were fully written and checksummed, yet do not parse.
    Corrupt {
        /// Which file is corrupt (`wal.log` or `snapshot.bin`).
        file: &'static str,
        /// What failed to parse.
        message: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { file, message } => write!(f, "{file} is corrupt: {message}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One durable mutation of the serving index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert-or-replace a batch of rankings (one client request).
    Upsert(Vec<Ranking>),
    /// Remove one ranking by id.
    Delete(RankingId),
}

impl WalRecord {
    /// Appends the codec encoding of the record to `out`.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Upsert(rankings) => {
                TAG_UPSERT.encode(out);
                rankings.len().encode(out);
                for r in rankings {
                    r.id().encode(out);
                    // Mirrors `Vec<ItemId>` codec framing without cloning
                    // the item slice into an owned Vec first.
                    r.items().len().encode(out);
                    for &item in r.items() {
                        item.encode(out);
                    }
                }
            }
            WalRecord::Delete(id) => {
                TAG_DELETE.encode(out);
                id.encode(out);
            }
        }
    }

    /// Decodes one record from the front of `input`, advancing it.
    /// Returns `None` on malformed bytes (including invalid rankings —
    /// duplicate items or empty item lists never encode, so they never
    /// legitimately decode).
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            TAG_UPSERT => {
                let count = usize::decode(input)?;
                // Corrupt-length guard mirroring the Vec codec: each
                // ranking needs at least its id bytes.
                if count > input.len() {
                    return None;
                }
                let mut rankings = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = RankingId::decode(input)?;
                    let items = Vec::<ItemId>::decode(input)?;
                    rankings.push(Ranking::new(id, items).ok()?);
                }
                Some(WalRecord::Upsert(rankings))
            }
            TAG_DELETE => RankingId::decode(input).map(WalRecord::Delete),
            _ => None,
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial), table-driven, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    #[expect(
        clippy::indexing_slicing,
        reason = "i < 256 by the loop bound; the table has 256 entries"
    )]
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "i < 256 — the table-index loop bound"
        )]
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `bytes` (IEEE, the zlib/Ethernet polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    #[expect(
        clippy::indexing_slicing,
        reason = "index is masked into 0..=255 by `& 0xFF`; the table has 256 entries"
    )]
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The state recovered by [`WalStore::open`]: snapshot first, then every
/// intact WAL record, in append order.
#[derive(Debug)]
pub struct WalReplay {
    /// The rankings in the snapshot (empty when no snapshot exists).
    pub snapshot: Vec<Ranking>,
    /// Intact WAL records to apply on top of the snapshot, oldest first.
    pub records: Vec<WalRecord>,
    /// Bytes dropped from the WAL tail because the final frame was torn
    /// (incomplete length/checksum/payload). Zero on a clean shutdown.
    pub dropped_bytes: usize,
}

/// Append-only WAL plus snapshot store rooted at one directory.
///
/// Not internally synchronized: the serving layer wraps the store in its
/// own mutex so the WAL ordering matches the in-memory mutation ordering.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    wal: File,
    records_since_snapshot: u64,
    wal_bytes: u64,
}

impl WalStore {
    /// Opens (creating if needed) the store at `dir` and replays its
    /// contents. A torn WAL tail is truncated away so subsequent appends
    /// continue from the last intact frame.
    pub fn open(dir: &Path) -> Result<(Self, WalReplay), WalError> {
        fs::create_dir_all(dir)?;
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;

        let wal_path = dir.join(WAL_FILE);
        let mut existing = Vec::new();
        if wal_path.exists() {
            File::open(&wal_path)?.read_to_end(&mut existing)?;
        }
        let (records, intact_bytes) = replay_frames(&existing)?;
        let dropped_bytes = existing.len() - intact_bytes;

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        if dropped_bytes > 0 {
            // Cut the torn tail off so the next append does not extend a
            // half-written frame into permanently unreadable garbage.
            wal.set_len(intact_bytes as u64)?;
        }
        let replay = WalReplay {
            snapshot,
            records,
            dropped_bytes,
        };
        let records_since_snapshot = replay.records.len() as u64;
        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                records_since_snapshot,
                wal_bytes: intact_bytes as u64,
            },
            replay,
        ))
    }

    /// Appends one record as a complete checksummed frame. The frame is
    /// written in a single `write_all`, so a crash leaves either the whole
    /// frame or a torn tail that the next open truncates.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let mut payload = Vec::new();
        record.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a frame holds one request batch — far below 4 GiB"
        )]
        (payload.len() as u32).encode(&mut frame);
        crc32(&payload).encode(&mut frame);
        frame.extend_from_slice(&payload);
        self.wal.write_all(&frame)?;
        self.records_since_snapshot += 1;
        self.wal_bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the WAL file, upgrading process-crash durability to
    /// OS-crash/power-loss durability for everything appended so far.
    pub fn sync(&self) -> Result<(), WalError> {
        self.wal.sync_all()?;
        Ok(())
    }

    /// Writes a new snapshot of `rankings` and truncates the WAL.
    ///
    /// Crash-ordering: the snapshot is staged to a temp file, fsynced, and
    /// renamed over the previous snapshot *before* the WAL is truncated. A
    /// crash at any point leaves a recoverable store — at worst the WAL
    /// still holds records the snapshot already reflects, which replay
    /// re-applies idempotently.
    pub fn snapshot(&mut self, rankings: &[Ranking]) -> Result<(), WalError> {
        let mut payload = Vec::new();
        rankings.len().encode(&mut payload);
        for r in rankings {
            r.id().encode(&mut payload);
            r.items().len().encode(&mut payload);
            for &item in r.items() {
                item.encode(&mut payload);
            }
        }
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut out = File::create(&tmp)?;
            out.write_all(SNAPSHOT_MAGIC)?;
            let mut crc_bytes = Vec::with_capacity(4);
            crc32(&payload).encode(&mut crc_bytes);
            out.write_all(&crc_bytes)?;
            out.write_all(&payload)?;
            out.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.wal.set_len(0)?;
        self.wal.sync_all()?;
        self.records_since_snapshot = 0;
        self.wal_bytes = 0;
        Ok(())
    }

    /// Number of records appended since the last snapshot (or open, if the
    /// WAL already held records) — the serving layer's snapshot trigger.
    pub fn records_since_snapshot(&self) -> u64 {
        self.records_since_snapshot
    }

    /// Current WAL size in bytes (intact frames only).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Reads and validates the snapshot file, returning its rankings (empty if
/// the file does not exist). A malformed snapshot is [`WalError::Corrupt`]:
/// snapshots are written atomically, so a bad one was never torn — its
/// bytes are wrong.
fn read_snapshot(path: &Path) -> Result<Vec<Ranking>, WalError> {
    let corrupt = |message: String| WalError::Corrupt {
        file: SNAPSHOT_FILE,
        message,
    };
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(corrupt(format!(
            "{} bytes is shorter than the header",
            bytes.len()
        )));
    }
    let (magic, rest) = bytes.split_at(SNAPSHOT_MAGIC.len());
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic".to_string()));
    }
    let mut rest_ref = rest;
    let stored_crc =
        u32::decode(&mut rest_ref).ok_or_else(|| corrupt("checksum missing".to_string()))?;
    if crc32(rest_ref) != stored_crc {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    let payload = &mut rest_ref;
    let count = usize::decode(payload).ok_or_else(|| corrupt("count missing".to_string()))?;
    if count > payload.len() {
        return Err(corrupt(format!("impossible ranking count {count}")));
    }
    let mut rankings = Vec::with_capacity(count);
    for i in 0..count {
        let id = RankingId::decode(payload)
            .ok_or_else(|| corrupt(format!("ranking {i}: id missing")))?;
        let items = Vec::<ItemId>::decode(payload)
            .ok_or_else(|| corrupt(format!("ranking {i}: items missing")))?;
        let ranking =
            Ranking::new(id, items).map_err(|e| corrupt(format!("ranking {i} (id {id}): {e}")))?;
        rankings.push(ranking);
    }
    Ok(rankings)
}

/// Walks the WAL byte stream frame by frame. Returns the decoded records
/// and the byte length of the intact prefix. An incomplete or
/// checksum-failing final region is a torn tail: everything from its start
/// is dropped. A checksum-*valid* frame that fails to decode is corruption
/// and errors out.
fn replay_frames(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize), WalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut cursor = bytes;
    loop {
        let mut peek = cursor;
        let Some(len) = u32::decode(&mut peek) else {
            break; // fewer than 4 bytes left: torn length prefix
        };
        let Some(stored_crc) = u32::decode(&mut peek) else {
            break; // torn checksum
        };
        let len = len as usize;
        if peek.len() < len {
            break; // torn payload
        }
        let (payload, rest) = peek.split_at(len);
        if crc32(payload) != stored_crc {
            // A bad checksum means the frame was never completely written;
            // nothing after it is trustworthy either.
            break;
        }
        let mut payload_ref = payload;
        let record = WalRecord::decode(&mut payload_ref);
        let fully_consumed = payload_ref.is_empty();
        match record {
            Some(r) if fully_consumed => records.push(r),
            _ => {
                return Err(WalError::Corrupt {
                    file: WAL_FILE,
                    message: format!(
                        "frame at byte {offset} passes its checksum but does not decode"
                    ),
                });
            }
        }
        offset += 8 + len;
        cursor = rest;
    }
    Ok((records, offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "topk-wal-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ranking(id: u64, first: u32) -> Ranking {
        Ranking::new(id, (first..first + 5).collect()).expect("distinct items")
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_dir_opens_empty() -> TestResult {
        let dir = temp_dir("empty");
        let (store, replay) = WalStore::open(&dir)?;
        assert!(replay.snapshot.is_empty());
        assert!(replay.records.is_empty());
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(store.records_since_snapshot(), 0);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn records_replay_in_append_order() -> TestResult {
        let dir = temp_dir("order");
        let recs = vec![
            WalRecord::Upsert(vec![ranking(1, 10), ranking(2, 20)]),
            WalRecord::Delete(1),
            WalRecord::Upsert(vec![ranking(3, 30)]),
        ];
        {
            let (mut store, _) = WalStore::open(&dir)?;
            for r in &recs {
                store.append(r)?;
            }
            assert_eq!(store.records_since_snapshot(), 3);
        }
        let (store, replay) = WalStore::open(&dir)?;
        assert_eq!(replay.records, recs);
        assert_eq!(replay.dropped_bytes, 0);
        assert!(replay.snapshot.is_empty());
        // Records already in the WAL still count toward the next snapshot.
        assert_eq!(store.records_since_snapshot(), 3);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn snapshot_truncates_wal_and_replays_first() -> TestResult {
        let dir = temp_dir("snapshot");
        {
            let (mut store, _) = WalStore::open(&dir)?;
            store.append(&WalRecord::Upsert(vec![ranking(1, 10)]))?;
            store.snapshot(&[ranking(1, 10)])?;
            assert_eq!(store.records_since_snapshot(), 0);
            assert_eq!(store.wal_bytes(), 0);
            store.append(&WalRecord::Delete(1))?;
        }
        let (_, replay) = WalStore::open(&dir)?;
        assert_eq!(replay.snapshot, vec![ranking(1, 10)]);
        assert_eq!(replay.records, vec![WalRecord::Delete(1)]);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() -> TestResult {
        let dir = temp_dir("torn");
        {
            let (mut store, _) = WalStore::open(&dir)?;
            store.append(&WalRecord::Upsert(vec![ranking(1, 10)]))?;
            store.append(&WalRecord::Delete(99))?;
        }
        // Simulate a crash mid-append: a frame whose payload is cut short.
        let wal_path = dir.join(WAL_FILE);
        let intact = fs::read(&wal_path)?;
        let mut torn = intact.clone();
        torn.extend_from_slice(&1000u32.to_le_bytes()); // length prefix
        torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // checksum
        torn.extend_from_slice(&[1, 2, 3]); // 3 of the promised 1000 bytes
        fs::write(&wal_path, &torn)?;

        let (mut store, replay) = WalStore::open(&dir)?;
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.dropped_bytes, 11);
        // The tail was truncated away, so appending works and a clean
        // reopen sees all three records.
        store.append(&WalRecord::Delete(1))?;
        drop(store);
        assert!(fs::read(&wal_path)?.len() > intact.len());
        let (_, replay) = WalStore::open(&dir)?;
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.dropped_bytes, 0);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn bad_checksum_stops_replay_at_the_break() -> TestResult {
        let dir = temp_dir("badcrc");
        {
            let (mut store, _) = WalStore::open(&dir)?;
            store.append(&WalRecord::Delete(1))?;
            store.append(&WalRecord::Delete(2))?;
        }
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path)?;
        // Flip a payload byte of the FIRST frame: replay recovers nothing —
        // a broken frame makes everything after it untrustworthy.
        let last = bytes.len() - 1;
        bytes[last / 2] ^= 0xFF;
        let first_frame_start = 0;
        bytes[first_frame_start + 8] ^= 0xFF; // first payload byte
        fs::write(&wal_path, &bytes)?;
        let (_, replay) = WalStore::open(&dir)?;
        assert!(replay.records.is_empty());
        assert!(replay.dropped_bytes > 0);
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn checksummed_garbage_is_corruption_not_a_torn_tail() -> TestResult {
        let dir = temp_dir("garbage");
        fs::create_dir_all(&dir)?;
        // A frame with a *valid* checksum over an undecodable payload (tag 9
        // does not exist).
        let payload = vec![9u8, 0, 0, 0];
        let mut frame = Vec::new();
        (payload.len() as u32).encode(&mut frame);
        crc32(&payload).encode(&mut frame);
        frame.extend_from_slice(&payload);
        fs::write(dir.join(WAL_FILE), &frame)?;
        let err = WalStore::open(&dir).expect_err("valid checksum + bad payload must error");
        assert!(
            matches!(
                err,
                WalError::Corrupt {
                    file: "wal.log",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("checksum"));
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn corrupt_snapshot_is_an_error() -> TestResult {
        let dir = temp_dir("badsnap");
        fs::create_dir_all(&dir)?;
        fs::write(dir.join(SNAPSHOT_FILE), b"TKSJSNP1then-garbage")?;
        let err = WalStore::open(&dir).expect_err("corrupt snapshot must not open");
        assert!(
            matches!(
                err,
                WalError::Corrupt {
                    file: "snapshot.bin",
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir)?;
        Ok(())
    }

    #[test]
    fn crash_between_snapshot_and_truncate_replays_idempotently() -> TestResult {
        let dir = temp_dir("midcycle");
        {
            let (mut store, _) = WalStore::open(&dir)?;
            store.append(&WalRecord::Upsert(vec![ranking(7, 70)]))?;
        }
        // Simulate the crash window: snapshot renamed into place, WAL NOT
        // yet truncated. (Write the snapshot through a second store rooted
        // elsewhere, then copy it in next to the stale WAL.)
        let side = temp_dir("midcycle-side");
        {
            let (mut other, _) = WalStore::open(&side)?;
            other.snapshot(&[ranking(7, 70)])?;
        }
        fs::copy(side.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE))?;
        let (_, replay) = WalStore::open(&dir)?;
        // Both the snapshot AND the already-snapshotted record come back;
        // applying the upsert twice converges to the same state.
        assert_eq!(replay.snapshot, vec![ranking(7, 70)]);
        assert_eq!(
            replay.records,
            vec![WalRecord::Upsert(vec![ranking(7, 70)])]
        );
        fs::remove_dir_all(&dir)?;
        fs::remove_dir_all(&side)?;
        Ok(())
    }

    #[test]
    fn wal_error_messages_are_informative() {
        let io = WalError::from(io::Error::other("disk fell off"));
        assert!(io.to_string().contains("disk fell off"));
        let corrupt = WalError::Corrupt {
            file: "wal.log",
            message: "frame at byte 12".to_string(),
        };
        assert!(corrupt.to_string().contains("wal.log"));
        assert!(corrupt.to_string().contains("byte 12"));
    }
}
