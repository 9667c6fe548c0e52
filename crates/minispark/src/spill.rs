//! External (spilling) group-by.
//!
//! §4.1 of the paper argues that iterator-style processing is "more native to
//! Spark's computational model, since this allows the framework to spill some
//! data to disk, when needed" — materialized in-memory indexes defeat that
//! and cause GC pressure and OOM crashes. The engine reproduces the mechanism
//! with a classic external grouping operator:
//!
//! 1. groups accumulate in a sorted in-memory map,
//! 2. whenever the record budget is exceeded, the map is encoded
//!    ([`crate::codec::Codec`]) into a sorted **run file**,
//! 3. the final result streams a k-way merge over all runs plus the in-memory
//!    remainder, concatenating value lists of equal keys.
//!
//! Run files are length-prefixed entry streams read through `BufReader`, so
//! the merge holds only one entry per run in memory.

#![warn(clippy::indexing_slicing)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::Codec;

/// Result of an external group-by: the grouped records plus how many run
/// files, of how many bytes, had to be spilled (0 = everything fit in
/// memory).
#[derive(Debug)]
pub struct ExternalGroupByResult<K, V> {
    /// The grouped output, sorted by key.
    pub groups: Vec<(K, Vec<V>)>,
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
    fn write_entry<K: Codec, V: Codec>(&mut self, key: &K, values: &Vec<V>) -> io::Result<usize> {
        let mut buf = Vec::new();
        key.encode(&mut buf);
        values.encode(&mut buf);
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
/// The returned groups are sorted by key. With `record_budget = usize::MAX`
/// this degenerates to an in-memory sorted group-by and never touches disk.
pub fn external_group_by<K, V, I>(
    records: I,
    record_budget: usize,
    spill_dir: Option<&Path>,
) -> io::Result<ExternalGroupByResult<K, V>>
where
    K: Codec + Ord + Clone,
    V: Codec,
    I: Iterator<Item = (K, V)>,
{
    let record_budget = record_budget.max(1);
    let mut in_memory: BTreeMap<K, Vec<V>> = BTreeMap::new();
    let mut buffered = 0usize;
    let mut runs: Vec<RunReader> = Vec::new();
    let mut spilled_bytes = 0usize;

    for (k, v) in records {
        in_memory.entry(k).or_default().push(v);
        buffered += 1;
        if buffered >= record_budget {
            let mut writer = RunWriter::create(spill_dir)?;
            for (key, values) in std::mem::take(&mut in_memory) {
                spilled_bytes += writer.write_entry(&key, &values)?;
            }
            runs.push(writer.finish()?);
            // A finished run is a durability boundary other tasks could
            // observe — announce it to the schedule-exploration harness.
            crate::sched::yield_point("spill-run");
            buffered = 0;
        }
    }

    let spilled_runs = runs.len();
    if runs.is_empty() {
        return Ok(ExternalGroupByResult {
            groups: in_memory.into_iter().collect(),
            spilled_runs,
            spilled_bytes,
        });
    }

    // K-way merge: the heap holds the head entry of each source; equal keys
    // from different sources are concatenated. The in-memory remainder acts
    // as one more (already sorted) source.
    let mut memory_iter = in_memory.into_iter();

    enum Source {
        Run(usize),
        Memory,
    }

    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    // Pending values per source, aligned with heap entries by source index.
    // Source index: 0..runs.len() are runs, runs.len() is the memory iterator.
    let memory_index = runs.len();
    let mut pending: Vec<Option<Vec<V>>> = (0..=memory_index).map(|_| None).collect();

    let advance = |source: &Source,
                   runs: &mut Vec<RunReader>,
                   memory_iter: &mut std::collections::btree_map::IntoIter<K, Vec<V>>|
     -> io::Result<Option<(K, Vec<V>)>> {
        match source {
            #[expect(
                clippy::indexing_slicing,
                reason = "Source::Run is only built with idx < memory_index ≤ runs.len()"
            )]
            Source::Run(idx) => runs[*idx].next_entry::<K, V>(),
            Source::Memory => Ok(memory_iter.next()),
        }
    };

    #[allow(clippy::needless_range_loop)] // idx doubles as the source id pushed into the heap
    #[expect(
        clippy::indexing_slicing,
        reason = "idx ≤ memory_index < pending.len()"
    )]
    for idx in 0..=memory_index {
        let source = if idx == memory_index {
            Source::Memory
        } else {
            Source::Run(idx)
        };
        if let Some((k, vs)) = advance(&source, &mut runs, &mut memory_iter)? {
            pending[idx] = Some(vs);
            heap.push(Reverse((k, idx)));
        }
    }

    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    #[expect(
        clippy::indexing_slicing,
        reason = "the heap only holds source ids ≤ memory_index < pending.len()"
    )]
    while let Some(Reverse((key, idx))) = heap.pop() {
        let mut values = pending[idx].take().expect("heap entry without values");
        let source = if idx == memory_index {
            Source::Memory
        } else {
            Source::Run(idx)
        };
        if let Some((k, vs)) = advance(&source, &mut runs, &mut memory_iter)? {
            pending[idx] = Some(vs);
            heap.push(Reverse((k, idx)));
        }
        match groups.last_mut() {
            Some((last_key, last_values)) if *last_key == key => {
                last_values.append(&mut values);
            }
            _ => groups.push((key, values)),
        }
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
        let result = external_group_by(records.into_iter(), budget, None).unwrap();
        // Sorted by key.
        assert!(result.groups.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(result.groups.len(), expected.len());
        for (k, mut vs) in result.groups.clone() {
            let mut want = expected.remove(&k).unwrap();
            vs.sort();
            want.sort();
            assert_eq!(vs, want, "values for key {k}");
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
        let result = external_group_by(Vec::<(u32, u64)>::new().into_iter(), 10, None).unwrap();
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
        let result = external_group_by(records.into_iter(), 50, None).unwrap();
        let seven = result.groups.iter().find(|(k, _)| *k == 7).unwrap();
        assert_eq!(seven.1.len(), 300);
    }

    #[test]
    fn spill_files_are_deleted() {
        let dir = std::env::temp_dir().join(format!("minispark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<(u32, u64)> = (0..500).map(|n| (n % 13, u64::from(n))).collect();
        let result = external_group_by(records.into_iter(), 50, Some(&dir)).unwrap();
        assert!(result.spilled_runs > 0);
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "spill files were not cleaned up");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_the_bytes_its_runs_hold() {
        let records: Vec<(u32, u64)> = (0..200).map(|n| (n % 11, u64::from(n))).collect();
        let spilled = external_group_by(records.clone().into_iter(), 50, None).unwrap();
        assert_eq!(spilled.spilled_runs, 4);
        // Every run holds its entries' length prefixes and encodings, so
        // four runs hold more than four prefixes' worth.
        assert!(spilled.spilled_bytes > 4 * 4, "{}", spilled.spilled_bytes);
        let in_memory = external_group_by(records.into_iter(), usize::MAX, None).unwrap();
        assert_eq!((in_memory.spilled_runs, in_memory.spilled_bytes), (0, 0));
    }

    #[test]
    fn string_keys_group_and_sort() {
        let records = vec![
            ("b".to_string(), 1u32),
            ("a".to_string(), 2),
            ("b".to_string(), 3),
        ];
        let result = external_group_by(records.into_iter(), 1, None).unwrap();
        assert_eq!(result.groups[0].0, "a");
        assert_eq!(result.groups[1].0, "b");
        assert_eq!(result.groups[1].1, vec![1, 3]);
    }
}
