//! Grouped partitions as sorted runs: the one shape every grouping of the
//! engine produces.
//!
//! A reduce task of a group-by sorts its partition by key and keeps it as
//! one [`Groups`]: the distinct keys in ascending order, the end of each
//! key's run, and the values in key order — arrival order within a key. A
//! group is a slice of that one value buffer, so forming `g` groups costs a
//! handful of allocations per partition, not one growing `Vec` per group,
//! and a consuming stage frees a partition's groups in one go. It is the
//! shape of Spark's sort-based shuffle, and the one the spilling group-by
//! ([`crate::spill`]) merges its run files into.
//!
//! A [`GroupedDataset`] holds one [`Groups`] per reduce partition. Its stages
//! hand a task its whole grouped partition ([`GroupedDataset::map_partitions`]),
//! which iterates `(key, &[value])` slices, so a task can keep state — a
//! counter, a scratch buffer — across its groups.

#![warn(clippy::indexing_slicing)]

use std::hash::Hash;

use crate::dataset::{Cluster, Dataset};
use crate::shuffle::FastHashMap;

/// Ids and positions in [`Groups::sorted`] are `u32`s — half the bytes of
/// `usize` in the map, the cursors and the order, which its passes read at
/// random — so a grouped partition holds at most `u32::MAX` records.
const PAST_U32: &str = "a grouped partition holds at most u32::MAX records";

/// One grouped partition: keys ascending, each with the run of its values in
/// arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups<K, V> {
    /// The distinct keys, ascending.
    keys: Vec<K>,
    /// `ends[g]` is one past the last value of `keys[g]` in `values`.
    ends: Vec<usize>,
    /// Every value, grouped by key.
    values: Vec<V>,
}

impl<K, V> Default for Groups<K, V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Clone + Ord, V> Groups<K, V> {
    /// Groups `records` — about `len` of them, which sizes the buffers — by
    /// key, a counting sort over the distinct keys:
    ///
    /// 1. one probe of a key → id map per record numbers the distinct keys
    ///    and counts each one's records;
    /// 2. the distinct keys are sorted, and each run starts where the runs
    ///    of the smaller keys end;
    /// 3. each record's index is placed at its run's next position, in
    ///    arrival order, and the values are gathered into place.
    ///
    /// Only the distinct keys are compared, and every buffer — the map
    /// included — is allocated once, sized by the partition's record count:
    /// a partition's groups cost the same nine allocations however many
    /// groups it holds.
    ///
    /// On `vj-sparse`'s 477 k token entries in two partitions, runs included,
    /// this took 28–37 ms (60 ms in a cold first round) and 50–64 ms with
    /// `usize` ids; sorting the `(key, arrival index)` pairs took 38–51 ms,
    /// a stable sort of the records 49–56 ms, and a map of one `Vec` per
    /// group, freed, 57–91 ms (six rounds each, one thread, 2-vCPU host).
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index `cursor`, which holds one entry per id; positions index `order` \
                  and arrival indices `slots`, each of the partition's length"
    )]
    pub(crate) fn sorted(len: usize, records: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut ids: FastHashMap<K, u32> =
            FastHashMap::with_capacity_and_hasher(len, Default::default());
        // Each distinct key with its id; `cursor` counts an id's records,
        // then holds the next position of its run.
        let mut distinct: Vec<(K, u32)> = Vec::with_capacity(len);
        let mut cursor: Vec<u32> = Vec::with_capacity(len);
        let mut id_of: Vec<u32> = Vec::with_capacity(len);
        let mut slots: Vec<Option<V>> = Vec::with_capacity(len);
        let mut next_id: u32 = 0;
        for (key, value) in records {
            let id = *ids.entry(key).or_insert_with_key(|key| {
                distinct.push((key.clone(), next_id));
                cursor.push(0);
                next_id = next_id.checked_add(1).expect(PAST_U32);
                next_id - 1
            });
            cursor[id as usize] += 1;
            id_of.push(id);
            slots.push(Some(value));
        }
        drop(ids);
        let last = u32::try_from(id_of.len()).expect(PAST_U32);

        distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(distinct.len());
        let mut ends = Vec::with_capacity(distinct.len());
        let mut end = 0;
        for (key, id) in distinct {
            let count = cursor[id as usize];
            cursor[id as usize] = end;
            end += count;
            keys.push(key);
            ends.push(end as usize);
        }

        let mut order = vec![0u32; id_of.len()];
        for (at, id) in (0..last).zip(id_of) {
            let next = &mut cursor[id as usize];
            order[*next as usize] = at;
            *next += 1;
        }
        let values = order
            .into_iter()
            .map(|at| slots[at as usize].take().expect("each arrival index once"))
            .collect();
        Self { keys, ends, values }
    }
}

impl<K: Ord, V> Groups<K, V> {
    /// Appends `values` to the last run if `key` is its key, else opens a
    /// new run. Keys must arrive in ascending order.
    pub(crate) fn extend(&mut self, key: K, values: Vec<V>) {
        if values.is_empty() {
            return;
        }
        if self.keys.last() != Some(&key) {
            debug_assert!(
                self.keys.last().is_none_or(|last| *last < key),
                "runs must arrive in key order"
            );
            self.keys.push(key);
            self.ends.push(self.values.len());
        }
        self.values.extend(values);
        if let Some(end) = self.ends.last_mut() {
            *end = self.values.len();
        }
    }
}

impl<K, V> Groups<K, V> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the partition holds no group.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of values over all groups.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The groups in key order, each as its key and the slice of its values.
    #[expect(
        clippy::indexing_slicing,
        reason = "`ends` ascends and its last entry is `values.len()`, so every run is in bounds"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[V])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.keys
            .iter()
            .zip(starts.zip(self.ends.iter().copied()))
            .map(|(key, (start, end))| (key, &self.values[start..end]))
    }

    /// The group lengths in key order, read off the run ends.
    pub fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(self.ends.iter()).map(|(start, end)| end - start)
    }

    /// The groups as `(key, values)` records, one `Vec` per group.
    pub(crate) fn into_pairs(self) -> Vec<(K, Vec<V>)> {
        let mut values = self.values.into_iter();
        let mut start = 0;
        self.keys
            .into_iter()
            .zip(self.ends)
            .map(|(key, end)| {
                let run = values.by_ref().take(end - start).collect();
                start = end;
                (key, run)
            })
            .collect()
    }
}

/// A dataset grouped by key: one [`Groups`] per reduce partition, each key in
/// exactly one partition.
pub struct GroupedDataset<K, V> {
    pub(crate) cluster: Cluster,
    pub(crate) partitions: Vec<Groups<K, V>>,
}

impl<K, V> GroupedDataset<K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// The owning cluster handle.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// One partition's groups. Panics when `idx` is out of range, as
    /// [`Dataset::partition`] does.
    pub fn partition(&self, idx: usize) -> &Groups<K, V> {
        #[expect(
            clippy::indexing_slicing,
            reason = "an out-of-range partition is the caller's bug, as for Dataset::partition"
        )]
        &self.partitions[idx]
    }

    /// Number of groups over all partitions.
    pub fn num_groups(&self) -> usize {
        self.partitions.iter().map(Groups::len).sum()
    }

    /// Every group's length, partition by partition, read off the run ends.
    pub(crate) fn group_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.partitions.iter().flat_map(Groups::lens)
    }

    /// Runs one narrow stage with a task per partition: `f` reads the
    /// partition's groups and builds one output partition. The stage row
    /// reads the groups as its input records.
    pub fn map_partitions<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&Groups<K, V>) -> Vec<U> + Sync,
    {
        let inputs: Vec<&Groups<K, V>> = self.partitions.iter().collect();
        self.cluster
            .run_narrow_stage(name, inputs, self.num_groups(), |_, groups| f(groups))
    }

    /// [`GroupedDataset::map_partitions`] that consumes the groups: each task
    /// drops its partition once `f` has read it, so the groups are freed on
    /// the task threads, a partition at a time.
    pub fn into_map_partitions<U, F>(self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&Groups<K, V>) -> Vec<U> + Sync,
    {
        let groups = self.num_groups();
        self.cluster
            .run_narrow_stage(name, self.partitions, groups, |_, part| f(&part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_groups_keep_arrival_order_within_a_key() {
        let records = vec![
            (3u32, 'a'),
            (1, 'b'),
            (3, 'c'),
            (2, 'd'),
            (1, 'e'),
            (3, 'f'),
        ];
        let groups = Groups::sorted(records.len(), records);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.num_values(), 6);
        let seen: Vec<(u32, Vec<char>)> = groups.iter().map(|(k, vs)| (*k, vs.to_vec())).collect();
        assert_eq!(
            seen,
            vec![
                (1, vec!['b', 'e']),
                (2, vec!['d']),
                (3, vec!['a', 'c', 'f'])
            ]
        );
        assert_eq!(groups.lens().collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_eq!(groups.clone().into_pairs(), seen);
    }

    #[test]
    fn empty_and_extended_groups() {
        let empty = Groups::<u8, u8>::sorted(0, Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        assert!(empty.into_pairs().is_empty());

        let mut groups = Groups::default();
        groups.extend(1u8, vec![10u8, 11]);
        groups.extend(1, vec![12]);
        groups.extend(2, Vec::new());
        groups.extend(4, vec![40]);
        assert_eq!(
            groups.into_pairs(),
            vec![(1, vec![10, 11, 12]), (4, vec![40])]
        );
    }
}
