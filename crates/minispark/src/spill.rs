//! External (spilling) group-by.
//!
//! §4.1 of the paper argues that iterator-style processing is "more native to
//! Spark's computational model, since this allows the framework to spill some
//! data to disk, when needed" — materialized in-memory indexes defeat that
//! and cause GC pressure and OOM crashes. The engine reproduces the mechanism
//! with a classic external grouping operator:
//!
//! 1. records are taken a budget's worth at a time and sorted into runs
//!    ([`Groups::sorted`]), the in-memory group-by's own algorithm,
//! 2. every full budget's runs are encoded ([`crate::codec::Codec`]) into a
//!    sorted **run file**,
//! 3. the final result is a k-way merge over all run files plus the
//!    in-memory remainder into one [`Groups`], concatenating the values of
//!    equal keys in the order they arrived.
//!
//! Run files are length-prefixed entry streams read through `BufReader`, so
//! the merge holds only one entry per run in memory. With no run file the
//! result is the in-memory group-by's, bit for bit.

#![warn(clippy::indexing_slicing)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::hash::Hash;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::Codec;
use crate::groups::Groups;

/// Result of an external group-by: the grouped records plus how many run
/// files, of how many bytes, had to be spilled (0 = everything fit in
/// memory).
#[derive(Debug)]
pub struct ExternalGroupByResult<K, V> {
    /// The grouped output: keys ascending, values in arrival order.
    pub groups: Groups<K, V>,
    /// Number of run files written to disk.
    pub spilled_runs: usize,
    /// Bytes written into those run files.
    pub spilled_bytes: usize,
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn spill_file_path(dir: Option<&Path>) -> PathBuf {
    let dir = dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
    // relaxed(unique-id): only atomicity matters — each caller must draw a
    // distinct suffix, no ordering with other memory is implied.
    let unique = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(
        "minispark-spill-{}-{}.run",
        std::process::id(),
        unique
    ))
}

/// One spilled run on disk: entries of `(K, Vec<V>)`, sorted by key, each
/// length-prefixed with a `u32`.
struct RunWriter {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl RunWriter {
    fn create(dir: Option<&Path>) -> io::Result<Self> {
        let path = spill_file_path(dir);
        let file = File::create(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// Writes one entry; returns the bytes it occupies on disk (payload plus
    /// length prefix).
    fn write_entry<K: Codec, V: Codec>(&mut self, key: &K, values: &[V]) -> io::Result<usize> {
        let mut buf = Vec::new();
        key.encode(&mut buf);
        // A `Vec<V>`'s encoding: its length, then its items.
        values.len().encode(&mut buf);
        for value in values {
            value.encode(&mut buf);
        }
        let len = u32::try_from(buf.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "entry exceeds 4 GiB"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&buf)?;
        Ok(buf.len() + len.to_le_bytes().len())
    }

    fn finish(mut self) -> io::Result<RunReader> {
        self.writer.flush()?;
        drop(self.writer);
        let file = File::open(&self.path)?;
        Ok(RunReader {
            path: self.path,
            reader: BufReader::new(file),
        })
    }
}

/// Streaming reader over one run file; deletes the file on drop.
struct RunReader {
    path: PathBuf,
    reader: BufReader<File>,
}

impl RunReader {
    fn next_entry<K: Codec, V: Codec>(&mut self) -> io::Result<Option<(K, Vec<V>)>> {
        let mut len_bytes = [0u8; 4];
        match self.reader.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        let mut slice = buf.as_slice();
        let key = K::decode(&mut slice)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt spill key"))?;
        let values = Vec::<V>::decode(&mut slice)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt spill values"))?;
        Ok(Some((key, values)))
    }
}

impl Drop for RunReader {
    fn drop(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort temp-file cleanup in Drop; the OS reclaims stragglers"
        )]
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Groups `records` by key, keeping at most `record_budget` records in memory
/// and spilling sorted runs to `spill_dir` (or the system temp directory)
/// beyond that.
///
/// The returned groups are sorted by key, each key's values in the order
/// they arrived. A partition smaller than `record_budget` never touches disk.
pub fn external_group_by<K, V>(
    records: Vec<(K, V)>,
    record_budget: usize,
    spill_dir: Option<&Path>,
) -> io::Result<ExternalGroupByResult<K, V>>
where
    K: Codec + Hash + Eq + Clone + Ord,
    V: Codec,
{
    let record_budget = record_budget.max(1);
    if records.len() < record_budget {
        return Ok(ExternalGroupByResult {
            groups: Groups::sorted(records.len(), records),
            spilled_runs: 0,
            spilled_bytes: 0,
        });
    }
    let mut runs: Vec<RunReader> = Vec::new();
    let mut spilled_bytes = 0usize;
    let mut records = records.into_iter();
    let remainder = loop {
        let chunk: Vec<(K, V)> = records.by_ref().take(record_budget).collect();
        if chunk.len() < record_budget {
            break chunk;
        }
        let mut writer = RunWriter::create(spill_dir)?;
        for (key, values) in Groups::sorted(chunk.len(), chunk).iter() {
            spilled_bytes += writer.write_entry(key, values)?;
        }
        runs.push(writer.finish()?);
        // A finished run is a durability boundary other tasks could
        // observe — announce it to the schedule-exploration harness.
        crate::sched::yield_point("spill-run");
    };
    let spilled_runs = runs.len();

    // K-way merge: the heap holds the head entry of each source, and equal
    // keys pop in source order — the runs in the order they were written,
    // then the in-memory remainder — so values keep their arrival order.
    let mut memory = Groups::sorted(remainder.len(), remainder)
        .into_pairs()
        .into_iter();
    let memory_index = runs.len();
    let mut next_of = |idx: usize| -> io::Result<Option<(K, Vec<V>)>> {
        match runs.get_mut(idx) {
            Some(run) => run.next_entry::<K, V>(),
            None => Ok(memory.next()),
        }
    };
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    // The values of each source's head entry, by source index.
    let mut pending: Vec<Option<Vec<V>>> = Vec::with_capacity(memory_index + 1);
    for idx in 0..=memory_index {
        let head = next_of(idx)?.map(|(key, values)| {
            heap.push(Reverse((key, idx)));
            values
        });
        pending.push(head);
    }
    let mut groups = Groups::default();
    while let Some(Reverse((key, idx))) = heap.pop() {
        let slot = pending
            .get_mut(idx)
            .expect("the heap holds source ids only");
        let values = slot.take().expect("heap entry without values");
        if let Some((next, vs)) = next_of(idx)? {
            *slot = Some(vs);
            heap.push(Reverse((next, idx)));
        }
        groups.extend(key, values);
    }

    Ok(ExternalGroupByResult {
        groups,
        spilled_runs,
        spilled_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn check_grouping(records: Vec<(u32, u64)>, budget: usize) -> usize {
        let mut expected: HashMap<u32, Vec<u64>> = HashMap::new();
        for (k, v) in &records {
            expected.entry(*k).or_default().push(*v);
        }
        let result = external_group_by(records, budget, None).unwrap();
        let groups = result.groups.into_pairs();
        // Sorted by key, each key's values in arrival order.
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(groups.len(), expected.len());
        for (k, vs) in groups {
            assert_eq!(vs, expected.remove(&k).unwrap(), "values for key {k}");
        }
        result.spilled_runs
    }

    #[test]
    fn in_memory_when_budget_is_large() {
        let records: Vec<(u32, u64)> = (0..100).map(|n| (n % 10, u64::from(n))).collect();
        let spilled = check_grouping(records, usize::MAX);
        assert_eq!(spilled, 0);
    }

    #[test]
    fn spills_and_merges_correctly() {
        let records: Vec<(u32, u64)> = (0..1000).map(|n| (n % 37, u64::from(n))).collect();
        let spilled = check_grouping(records, 100);
        assert!(spilled >= 9, "expected ~10 runs, got {spilled}");
    }

    #[test]
    fn budget_of_one_spills_every_record() {
        let records: Vec<(u32, u64)> = vec![(1, 10), (2, 20), (1, 30)];
        let spilled = check_grouping(records, 1);
        assert_eq!(spilled, 3);
    }

    #[test]
    fn zero_budget_is_clamped() {
        let records: Vec<(u32, u64)> = vec![(5, 50)];
        let spilled = check_grouping(records, 0);
        assert_eq!(spilled, 1);
    }

    #[test]
    fn empty_input() {
        let result = external_group_by(Vec::<(u32, u64)>::new(), 10, None).unwrap();
        assert!(result.groups.is_empty());
        assert_eq!(result.spilled_runs, 0);
    }

    #[test]
    fn values_for_a_key_survive_across_runs() {
        // Key 7 appears in every run; all its values must be collected.
        let mut records = Vec::new();
        for n in 0..300u64 {
            records.push((7u32, n));
            records.push(((n % 90) as u32 + 100, n));
        }
        let result = external_group_by(records, 50, None).unwrap();
        let seven = result.groups.iter().find(|(k, _)| **k == 7).unwrap();
        assert_eq!(seven.1, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn spill_files_are_deleted() {
        let dir = std::env::temp_dir().join(format!("minispark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<(u32, u64)> = (0..500).map(|n| (n % 13, u64::from(n))).collect();
        let result = external_group_by(records, 50, Some(&dir)).unwrap();
        assert!(result.spilled_runs > 0);
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "spill files were not cleaned up");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_the_bytes_its_runs_hold() {
        let records: Vec<(u32, u64)> = (0..200).map(|n| (n % 11, u64::from(n))).collect();
        let spilled = external_group_by(records.clone(), 50, None).unwrap();
        assert_eq!(spilled.spilled_runs, 4);
        // Every run holds its entries' length prefixes and encodings, so
        // four runs hold more than four prefixes' worth.
        assert!(spilled.spilled_bytes > 4 * 4, "{}", spilled.spilled_bytes);
        let in_memory = external_group_by(records, usize::MAX, None).unwrap();
        assert_eq!((in_memory.spilled_runs, in_memory.spilled_bytes), (0, 0));
    }

    #[test]
    fn string_keys_group_and_sort() {
        let records = vec![
            ("b".to_string(), 1u32),
            ("a".to_string(), 2),
            ("b".to_string(), 3),
        ];
        let groups = external_group_by(records, 1, None)
            .unwrap()
            .groups
            .into_pairs();
        assert_eq!(groups[0].0, "a");
        assert_eq!(groups[1].0, "b");
        assert_eq!(groups[1].1, vec![1, 3]);
    }
}
