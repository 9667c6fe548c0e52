//! Skew-aware group splitting — the paper's δ-repartitioning (§6,
//! Algorithm 3) promoted from a CL-P special case into a reusable subsystem
//! that any grouped join can opt into.
//!
//! Per-key group sizes of a prefix-filtering join follow the corpus's Zipf
//! skew: one hot token's posting list can hold a whole stage hostage while
//! every other slot idles. The pieces here attack that in three steps:
//!
//! 1. **Measure** ([`estimate_group_sizes`]): a cheap deterministic prefix
//!    scan over the keyed dataset ([`crate::dataset::Dataset::sample_prefix`])
//!    estimates the per-key group-size distribution (p95 and max, scaled up
//!    by the sampling fraction) without running the shuffle.
//! 2. **Decide** ([`SkewBudget`]): an opt-in policy — off, a fixed budget, or
//!    an automatic budget derived from the slot count and the sampled p95
//!    group size ([`SkewEstimate::auto_budget`]).
//! 3. **Split** ([`SplitPlan`], [`split_grouped_join`]): groups over the
//!    budget are broken into balanced sub-partitions of at most `budget`
//!    members, spread across the cluster with the composite `(key, sub)`
//!    partitioner, self-joined chunk by chunk and R-S-joined for every chunk
//!    pair — exactly the CL-P mechanics, with the join kernels injected as
//!    closures so the engine stays algorithm-agnostic.
//!
//! The executor's dynamic task claiming (the atomic cursor in
//! [`crate::executor::run_tasks`]) is what makes the split pay off: chunk
//! tasks backfill idle slots instead of queueing behind their siblings on a
//! static assignment. [`SplitStats::stolen_tasks`] reports how often that
//! backfill actually happened (see [`crate::executor::steal_count`]).

#![warn(clippy::indexing_slicing)]

use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::dataset::Dataset;
use crate::shuffle::{CompositePartitioner, FastHashMap};

/// Default number of records the estimator reads from the head of each
/// partition. Enough for stable p95/max estimates on realistic partition
/// counts while keeping the scan O(partitions × constant).
pub const DEFAULT_SAMPLE_PER_PARTITION: usize = 4096;

/// The skew-handling policy of a join: whether (and at what budget) oversized
/// key groups are split into sub-partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewBudget {
    /// No splitting (the default): every key group is joined as one task.
    #[default]
    Off,
    /// Sample the keyed dataset first and derive the budget from the slot
    /// count and the estimated group-size distribution
    /// ([`SkewEstimate::auto_budget`]); skip splitting entirely when the
    /// estimated maximum group already fits the budget.
    Auto,
    /// Split every group larger than the given budget (the paper's explicit
    /// δ; clamped to ≥ 1).
    Fixed(usize),
}

impl SkewBudget {
    /// Resolves the policy against a keyed dataset: the chunk budget to
    /// split with, or `None` to run unsplit.
    ///
    /// `Auto` runs the sampling pass (recorded as a `{label}/skew-sample`
    /// driver stage) and backs off to `None` when the estimated maximum
    /// group size does not exceed the derived budget — a no-skew join keeps
    /// its exact unsplit stage structure.
    pub fn resolve<K, V>(&self, keyed: &Dataset<(K, V)>, label: &str) -> Option<usize>
    where
        K: Hash + Eq + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        match *self {
            SkewBudget::Off => None,
            SkewBudget::Fixed(budget) => Some(budget.max(1)),
            SkewBudget::Auto => {
                let estimate = estimate_group_sizes(keyed, DEFAULT_SAMPLE_PER_PARTITION, label);
                let slots = keyed.cluster().config().task_slots();
                let budget = estimate.auto_budget(slots);
                (estimate.max_group_size > budget).then_some(budget)
            }
        }
    }
}

/// Group-size estimates from a prefix scan of a keyed dataset, scaled from
/// the sample to the full dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewEstimate {
    /// Records the prefix scan actually read.
    pub sampled_records: usize,
    /// Records in the full dataset.
    pub total_records: usize,
    /// Distinct keys observed in the sample.
    pub groups_seen: usize,
    /// Estimated 95th-percentile group size (nearest rank over the sampled
    /// keys, scaled by `total/sampled`).
    pub p95_group_size: usize,
    /// Estimated size of the largest group (scaled like the p95).
    pub max_group_size: usize,
}

impl SkewEstimate {
    /// The automatic chunk budget for a cluster with `slots` task slots:
    ///
    /// ```text
    /// budget = max(p95, ⌈max / (2·slots)⌉)
    /// ```
    ///
    /// The p95 floor keeps typical groups unsplit (splitting them buys no
    /// balance and costs chunk-pair joins); the `max / (2·slots)` term caps
    /// the hottest group at about `2·slots` chunks, enough self-join tasks
    /// to occupy every slot without exploding the quadratic number of
    /// chunk-pair R-S tasks.
    pub fn auto_budget(&self, slots: usize) -> usize {
        let slots = slots.max(1);
        let p95 = self.p95_group_size.max(1);
        let cap = self.max_group_size.div_ceil(2 * slots).max(1);
        p95.max(cap)
    }
}

/// Estimates per-key group sizes from the first `per_partition` records of
/// each partition of `keyed` — the cheap pre-shuffle sampling pass. The scan
/// is deterministic (no RNG) and is recorded as a `{label}/skew-sample`
/// driver stage.
///
/// Keys are spread hash-uniformly across partitions, so the per-partition
/// prefixes form an unbiased slice of the key stream; per-key sample counts
/// are scaled by `total/sampled` to estimate true group sizes.
pub fn estimate_group_sizes<K, V>(
    keyed: &Dataset<(K, V)>,
    per_partition: usize,
    label: &str,
) -> SkewEstimate
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    let total_records = keyed.count();
    let sample = keyed.sample_prefix(&format!("{label}/skew-sample"), per_partition);
    let sampled_records = sample.len();
    let mut counts: FastHashMap<K, usize> = FastHashMap::default();
    for (key, _) in sample {
        *counts.entry(key).or_default() += 1;
    }
    #[expect(
        clippy::cast_precision_loss,
        reason = "record counts are far below 2^53 — exact in f64"
    )]
    let scale = if sampled_records == 0 {
        1.0
    } else {
        total_records as f64 / sampled_records as f64
    };
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "estimated group size — a non-negative float estimate, ceil fits usize"
    )]
    let mut sizes: Vec<usize> = counts
        .values()
        .map(|&c| (c as f64 * scale).ceil() as usize)
        .collect();
    sizes.sort_unstable();
    #[expect(
        clippy::indexing_slicing,
        reason = "1 ≤ rank.min(len) ≤ len — sizes is non-empty in this branch"
    )]
    let p95_group_size = if sizes.is_empty() {
        0
    } else {
        let rank = (95 * sizes.len()).div_ceil(100).max(1);
        sizes[rank.min(sizes.len()) - 1]
    };
    SkewEstimate {
        sampled_records,
        total_records,
        groups_seen: sizes.len(),
        p95_group_size,
        max_group_size: sizes.last().copied().unwrap_or(0),
    }
}

/// How one group of `len` members is split into chunks of at most `budget`
/// members.
///
/// Unlike a greedy `chunks(budget)` split (full chunks plus one remainder),
/// the plan balances: with `c = ⌈len / budget⌉` chunks, every chunk holds
/// `⌊len/c⌋` or `⌈len/c⌉` members. Both sizes are ≤ `budget` (if
/// `⌊len/c⌋ = budget` and a remainder existed, `len` would exceed
/// `c·budget`, contradicting `c = ⌈len/budget⌉`), the chunk *count* equals
/// the greedy split's, and no tiny remainder chunk wastes a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPlan {
    len: usize,
    budget: usize,
}

impl SplitPlan {
    /// Plans the split of a group of `len` members under `budget` (≥ 1).
    pub fn new(len: usize, budget: usize) -> Self {
        Self {
            len,
            budget: budget.max(1),
        }
    }

    /// The group size this plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty group (which yields no chunks).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The effective chunk budget (≥ 1).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of chunks: `⌈len / budget⌉` (0 for an empty group).
    pub fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.budget)
    }

    /// Whether the group actually splits (more than one chunk).
    pub fn is_split(&self) -> bool {
        self.num_chunks() > 1
    }

    /// The half-open index ranges `[start, end)` of the chunks, in order.
    /// They tile `0..len` exactly; every range spans ≤ `budget` indices.
    pub fn chunk_bounds(&self) -> Vec<(usize, usize)> {
        let Some(chunks) = NonZeroUsize::new(self.num_chunks()) else {
            return Vec::new();
        };
        let base = self.len / chunks;
        let extra = self.len % chunks;
        let mut out = Vec::with_capacity(chunks.get());
        let mut at = 0;
        for idx in 0..chunks.get() {
            let size = base + usize::from(idx < extra);
            debug_assert!(
                (1..=self.budget).contains(&size),
                "chunk size {size} outside 1..={}",
                self.budget
            );
            out.push((at, at + size));
            at += size;
        }
        debug_assert_eq!(at, self.len, "chunks must tile the group exactly");
        out
    }

    /// Splits a slice according to the plan. `items.len()` must equal the
    /// planned `len`.
    #[expect(
        clippy::indexing_slicing,
        reason = "chunk bounds tile 0..len exactly; items.len() == len is asserted above"
    )]
    pub fn chunks<'a, T>(&self, items: &'a [T]) -> Vec<&'a [T]> {
        debug_assert_eq!(items.len(), self.len, "plan was made for another group");
        self.chunk_bounds()
            .into_iter()
            .map(|(start, end)| &items[start..end])
            .collect()
    }

    /// All unordered chunk pairs `(i, j)` with `i < j` — the R-S joins that
    /// recover the pairs a chunked self-join misses. Every cross-chunk
    /// member pair appears in exactly one of these.
    pub fn chunk_pairs(&self) -> Vec<(u32, u32)> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "split plans make at most a few hundred chunks — fits u32"
        )]
        let chunks = self.num_chunks() as u32;
        let mut out = Vec::with_capacity((chunks as usize * chunks.saturating_sub(1) as usize) / 2);
        for i in 0..chunks {
            for j in (i + 1)..chunks {
                out.push((i, j));
            }
        }
        out
    }
}

/// Counters describing one [`split_grouped_join`] run, for the caller's
/// stats pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Groups that exceeded the budget and were split.
    pub groups_split: u64,
    /// Sub-partitions (chunks) those groups produced.
    pub chunks: u64,
    /// Chunk-pair R-S joins executed.
    pub rs_joins: u64,
    /// Tasks of the chunk self-join and chunk-pair R-S stages that the
    /// dynamic claim placed on a non-home slot (work stealing; see
    /// [`crate::executor::steal_count`]). 0 when no group was split;
    /// otherwise empty tasks that moved count too.
    pub stolen_tasks: u64,
}

/// Joins a key-grouped dataset with bounded per-task group sizes: groups of
/// ≤ `budget` members run `self_join` directly; larger groups are split by a
/// [`SplitPlan`], spread across `2 × partitions` targets with the composite
/// `(key, sub)` partitioner, self-joined per chunk and `cross_join`ed for
/// every chunk pair — Algorithm 3 of the paper with the kernels injected.
///
/// `self_join(key, members)` must emit every qualifying pair within
/// `members`; `cross_join(key, left, right)` every qualifying pair with one
/// side in each. Together with the chunk-pair coverage of
/// [`SplitPlan::chunk_pairs`] this makes the union of all stage outputs
/// contain exactly the unsplit join's pairs, each pair of one key's members
/// once (a pair found via several keys is the caller's to deduplicate or to
/// assign to one key).
///
/// Stage names mirror the original CL-P pipeline (`{label}/join-small-groups`,
/// `…/split-large-groups`, `…/spread-chunks`, `…/join-chunks`,
/// `…/key-chunks`, `…/pair-chunks`, `…/emit-chunk-pairs`,
/// `…/spread-chunk-pairs`, `…/rs-join-chunks`), so traces and metrics stay
/// comparable.
pub fn split_grouped_join<K, M, O, SJ, CJ>(
    grouped: &Dataset<(K, Vec<M>)>,
    budget: usize,
    partitions: usize,
    label: &str,
    self_join: SJ,
    cross_join: CJ,
) -> (Dataset<O>, SplitStats)
where
    K: Hash + Eq + Copy + Send + Sync + 'static,
    M: Clone + Send + Sync + 'static,
    O: Clone + Send + Sync + 'static,
    SJ: Fn(K, &[M]) -> Vec<O> + Sync,
    CJ: Fn(K, &[M], &[M]) -> Vec<O> + Sync,
{
    let budget = budget.max(1);
    let cluster = grouped.cluster();
    let stages_before = cluster.inner.metrics.stage_count();
    let groups_split = AtomicU64::new(0);
    let chunks_created = AtomicU64::new(0);
    let rs_joins = AtomicU64::new(0);

    // Small groups join as usual.
    let small = grouped.flat_map(&format!("{label}/join-small-groups"), |(key, members)| {
        if members.len() <= budget {
            self_join(*key, members)
        } else {
            Vec::new()
        }
    });
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sub < num_chunks, which fits u32 — see chunk_pairs"
    )]
    // Large groups are split into balanced chunks of ≤ budget members with a
    // secondary key.
    let chunks = grouped.flat_map(&format!("{label}/split-large-groups"), |(key, members)| {
        if members.len() <= budget {
            return Vec::new();
        }
        let plan = SplitPlan::new(members.len(), budget);
        // relaxed(counter): independent statistics counters, read only after
        // the eager stage (and the whole splitter) completes.
        groups_split.fetch_add(1, Ordering::Relaxed);
        chunks_created.fetch_add(plan.num_chunks() as u64, Ordering::Relaxed);
        plan.chunks(members)
            .into_iter()
            .enumerate()
            .map(|(sub, chunk)| ((*key, sub as u32), chunk.to_vec()))
            .collect::<Vec<_>>()
    });
    // Self-join each chunk after spreading chunks across the cluster by
    // (key, sub-key) — the composite partitioner of §6.
    let spread = chunks.partition_by(
        &format!("{label}/spread-chunks"),
        &CompositePartitioner::new(partitions.saturating_mul(2).max(1)),
    );
    let self_hits = spread.flat_map(&format!("{label}/join-chunks"), |((key, _), chunk)| {
        self_join(*key, chunk)
    });
    // Every ordered pair of chunks of one key is R-S joined. (The paper
    // realizes this as a Spark self-join of the chunk RDD keyed by token,
    // keeping pairs with sub₁ < sub₂ — the pairing below moves exactly the
    // same chunk replicas.)
    let chunk_pairs = chunks
        .map(
            &format!("{label}/key-chunks"),
            |((key, sub), chunk): &((K, u32), Vec<M>)| (*key, (*sub, chunk.clone())),
        )
        .group_by_key(&format!("{label}/pair-chunks"), partitions)
        .flat_map(&format!("{label}/emit-chunk-pairs"), |(key, subs)| {
            let mut sorted: Vec<&(u32, Vec<M>)> = subs.iter().collect();
            sorted.sort_by_key(|(sub, _)| *sub);
            let mut out = Vec::new();
            for i in 0..sorted.len() {
                for j in (i + 1)..sorted.len() {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "loop bounds: i < j < sorted.len()"
                    )]
                    out.push((
                        (*key, sorted[i].0, sorted[j].0),
                        (sorted[i].1.clone(), sorted[j].1.clone()),
                    ));
                }
            }
            out
        });
    let spread_pairs = chunk_pairs.partition_by(
        &format!("{label}/spread-chunk-pairs"),
        &CompositePartitioner::new(partitions.saturating_mul(2).max(1)),
    );
    let rs_results = spread_pairs.flat_map(
        &format!("{label}/rs-join-chunks"),
        |((key, _, _), (left, right))| {
            // relaxed(counter): independent statistics counter, read only
            // after the eager stage completes.
            rs_joins.fetch_add(1, Ordering::Relaxed);
            cross_join(*key, left, right)
        },
    );
    let hits = small.union(&self_hits).union(&rs_results);

    // relaxed(read-after-join): the eager stages finished — no writers remain.
    let groups_split = groups_split.load(Ordering::Relaxed);
    // Steal accounting: sum the stolen-task counts of the chunk-bearing
    // stages this call just recorded (the before/after slice keeps repeated
    // joins on one cluster from double counting). With no group split those
    // stages run only their `2 × partitions` empty tasks, so the count is 0.
    // Once a group splits, every moved task counts, empty ones included.
    let join_chunks = format!("{label}/join-chunks");
    let rs_join_chunks = format!("{label}/rs-join-chunks");
    let stolen_tasks: u64 = if groups_split == 0 {
        0
    } else {
        let report = cluster.metrics();
        report
            .stages
            .iter()
            .skip(stages_before)
            .filter(|s| s.name == join_chunks || s.name == rs_join_chunks)
            .map(|s| s.stolen_tasks(report.slots) as u64)
            .sum()
    };

    let stats = SplitStats {
        groups_split,
        // relaxed(read-after-join): as above.
        chunks: chunks_created.load(Ordering::Relaxed),
        rs_joins: rs_joins.load(Ordering::Relaxed),
        stolen_tasks,
    };
    (hits, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::dataset::Cluster;
    use std::collections::HashSet;

    #[test]
    fn split_plan_balances_and_tiles() {
        let plan = SplitPlan::new(10, 3);
        assert_eq!(plan.num_chunks(), 4);
        assert!(plan.is_split());
        // Balanced: sizes 3,3,2,2 — never the greedy 3,3,3,1.
        assert_eq!(plan.chunk_bounds(), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        let items: Vec<u32> = (0..10).collect();
        let chunks = plan.chunks(&items);
        let flat: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn split_plan_edge_cases() {
        assert_eq!(SplitPlan::new(0, 5).num_chunks(), 0);
        assert!(SplitPlan::new(0, 5).chunk_bounds().is_empty());
        assert!(SplitPlan::new(0, 5).chunk_pairs().is_empty());
        assert_eq!(SplitPlan::new(5, 5).num_chunks(), 1);
        assert!(!SplitPlan::new(5, 5).is_split());
        // Budget 0 clamps to 1: one chunk per member.
        assert_eq!(SplitPlan::new(3, 0).budget(), 1);
        assert_eq!(SplitPlan::new(3, 0).num_chunks(), 3);
    }

    #[test]
    fn chunk_pairs_enumerate_upper_triangle() {
        let plan = SplitPlan::new(10, 3); // 4 chunks
        assert_eq!(
            plan.chunk_pairs(),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
    }

    /// Property sweep (ISSUE 5, satellite 4): for every (len, budget) shape
    /// up to 48×9, the plan tiles the member range gaplessly with every
    /// chunk within budget, and the chunk pairs enumerate each unordered
    /// pair of distinct chunks exactly once — so self-joining every chunk
    /// and R-S-joining every chunk pair examines each member pair once.
    #[test]
    fn split_plan_covers_every_member_pair_exactly_once() {
        for len in 0..=48usize {
            for budget in 1..=9usize {
                let plan = SplitPlan::new(len, budget);
                let bounds = plan.chunk_bounds();
                // Gapless tiling, each chunk non-empty and within budget.
                let mut cursor = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, cursor, "len {len} budget {budget}");
                    assert!(end > start && end - start <= budget);
                    cursor = end;
                }
                assert_eq!(cursor, len, "len {len} budget {budget}");
                // Every member pair is covered exactly once: same-chunk
                // pairs by the self-join, cross-chunk by chunk pairs.
                let chunk_of = |m: usize| {
                    bounds
                        .iter()
                        .position(|&(s, e)| m >= s && m < e)
                        .expect("tiling covers every member")
                };
                let pairs: HashSet<(u32, u32)> = plan.chunk_pairs().into_iter().collect();
                assert_eq!(pairs.len(), plan.chunk_pairs().len(), "no duplicate pairs");
                for x in 0..len {
                    for y in (x + 1)..len {
                        let (cx, cy) = (chunk_of(x) as u32, chunk_of(y) as u32);
                        let covered = cx == cy || pairs.contains(&(cx, cy));
                        assert!(covered, "pair ({x},{y}) len {len} budget {budget}");
                        assert!(
                            !pairs.contains(&(cy, cx)),
                            "reverse pair would double-join ({cx},{cy})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimate_is_exact_when_the_sample_covers_everything() {
        let c = Cluster::new(ClusterConfig::local(2));
        // 40 records of key 7, 5 each of keys 0..4.
        let mut records: Vec<(u32, u8)> = (0..40).map(|_| (7u32, 0u8)).collect();
        for key in 0..4 {
            records.extend(std::iter::repeat_n((key, 0u8), 5));
        }
        let keyed = c.parallelize(records, 4);
        let est = estimate_group_sizes(&keyed, usize::MAX, "test");
        assert_eq!(est.sampled_records, 60);
        assert_eq!(est.total_records, 60);
        assert_eq!(est.groups_seen, 5);
        assert_eq!(est.max_group_size, 40);
        assert_eq!(est.p95_group_size, 40); // nearest rank over 5 sizes
    }

    #[test]
    fn estimate_scales_up_partial_samples() {
        let c = Cluster::new(ClusterConfig::local(2));
        let records: Vec<(u32, u8)> = (0..400).map(|n| (n % 4, 0u8)).collect();
        let keyed = c.parallelize(records, 4); // contiguous chunks of 100
        let est = estimate_group_sizes(&keyed, 10, "test");
        assert_eq!(est.sampled_records, 40);
        assert_eq!(est.total_records, 400);
        // Each key shows ~10× its sampled count after scaling.
        assert!(est.max_group_size >= 90, "max = {}", est.max_group_size);
    }

    #[test]
    fn auto_budget_floors_at_p95_and_caps_chunk_count() {
        let est = SkewEstimate {
            sampled_records: 100,
            total_records: 100,
            groups_seen: 20,
            p95_group_size: 8,
            max_group_size: 640,
        };
        // max/(2·4) = 80 dominates the p95 floor.
        assert_eq!(est.auto_budget(4), 80);
        // Flat distribution: the p95 floor wins.
        let flat = SkewEstimate {
            p95_group_size: 8,
            max_group_size: 10,
            ..est
        };
        assert_eq!(flat.auto_budget(4), 8);
        // Degenerate inputs stay ≥ 1.
        let empty = SkewEstimate {
            sampled_records: 0,
            total_records: 0,
            groups_seen: 0,
            p95_group_size: 0,
            max_group_size: 0,
        };
        assert_eq!(empty.auto_budget(0), 1);
    }

    #[test]
    fn budget_resolution_policies() {
        let c = Cluster::new(ClusterConfig::local(2));
        // One hot key (60 records) plus a hundred singletons: the p95 sits at
        // the singleton size, far below the hot group.
        let mut records: Vec<(u32, u8)> = (0..60).map(|_| (9u32, 0u8)).collect();
        records.extend((100..200).map(|k| (k, 0u8)));
        let keyed = c.parallelize(records, 4);
        assert_eq!(SkewBudget::Off.resolve(&keyed, "t"), None);
        assert_eq!(SkewBudget::Fixed(7).resolve(&keyed, "t"), Some(7));
        assert_eq!(SkewBudget::Fixed(0).resolve(&keyed, "t"), Some(1));
        // Auto sees max ≈ 60 ≫ budget and opts in with a sensible budget.
        let auto = SkewBudget::Auto
            .resolve(&keyed, "t")
            .expect("skew detected");
        assert!(auto < 60, "budget {auto} would never split the hot group");
        // A flat dataset opts out.
        let flat = c.parallelize((0..100u32).map(|k| (k, 0u8)).collect::<Vec<_>>(), 4);
        assert_eq!(SkewBudget::Auto.resolve(&flat, "t"), None);
    }

    /// Reference join: all unordered value pairs (by value, dedup'd), which
    /// a split join must reproduce exactly.
    fn brute_pairs(groups: &[(u32, Vec<u32>)]) -> HashSet<(u32, u32)> {
        let mut out = HashSet::new();
        for (_, members) in groups {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let (a, b) = (members[i].min(members[j]), members[i].max(members[j]));
                    if a != b {
                        out.insert((a, b));
                    }
                }
            }
        }
        out
    }

    fn run_split(groups: Vec<(u32, Vec<u32>)>, budget: usize) -> (HashSet<(u32, u32)>, SplitStats) {
        run_split_on(ClusterConfig::local(4), groups, budget)
    }

    fn run_split_on(
        config: ClusterConfig,
        groups: Vec<(u32, Vec<u32>)>,
        budget: usize,
    ) -> (HashSet<(u32, u32)>, SplitStats) {
        let c = Cluster::new(config);
        let grouped = c.parallelize(groups, 3);
        let (hits, stats) = split_grouped_join(
            &grouped,
            budget,
            4,
            "t",
            |_, members: &[u32]| {
                let mut out = Vec::new();
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        let (a, b) = (members[i].min(members[j]), members[i].max(members[j]));
                        if a != b {
                            out.push((a, b));
                        }
                    }
                }
                out
            },
            |_, left: &[u32], right: &[u32]| {
                let mut out = Vec::new();
                for &l in left {
                    for &r in right {
                        let (a, b) = (l.min(r), l.max(r));
                        if a != b {
                            out.push((a, b));
                        }
                    }
                }
                out
            },
        );
        (hits.collect().into_iter().collect(), stats)
    }

    #[test]
    fn split_join_matches_unsplit_pairs() {
        let groups = vec![
            (1u32, (0..13).collect::<Vec<u32>>()),
            (2, vec![100, 101]),
            (3, (20..25).collect()),
            (4, vec![7]),
        ];
        let expected = brute_pairs(&groups);
        for budget in [1usize, 2, 3, 5, 100] {
            let (got, stats) = run_split(groups.clone(), budget);
            assert_eq!(got, expected, "budget {budget}");
            if budget >= 13 {
                assert_eq!(stats.groups_split, 0);
                assert_eq!(stats.chunks, 0);
                assert_eq!(stats.rs_joins, 0);
            } else {
                assert!(stats.groups_split > 0, "budget {budget}");
                assert!(stats.chunks > stats.groups_split);
                assert!(stats.rs_joins > 0);
            }
        }
    }

    #[test]
    fn split_join_counts_chunks_and_rs_joins_exactly() {
        // One group of 10 at budget 3 → 4 chunks, C(4,2) = 6 R-S joins.
        let groups = vec![(1u32, (0..10).collect::<Vec<u32>>())];
        let (_, stats) = run_split(groups, 3);
        assert_eq!(stats.groups_split, 1);
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.rs_joins, 6);
    }

    /// The reversed schedule claims every task of an 8-task stage on 4 slots
    /// off its round-robin slot. A split join's chunk stages count those
    /// claims as steals; a join that splits nothing runs only the chunk
    /// stages' empty tasks and reports 0.
    #[test]
    fn steals_are_counted_only_when_a_group_splits() {
        let config = ClusterConfig::local(4).with_schedule(crate::sched::Schedule::Reversed);
        let groups = vec![(1u32, (0..10).collect::<Vec<u32>>()), (2, vec![100, 101])];
        let (_, split) = run_split_on(config.clone(), groups.clone(), 3);
        assert_eq!(split.groups_split, 1);
        assert!(split.stolen_tasks > 0, "{split:?}");
        let (_, unsplit) = run_split_on(config, groups, 10);
        assert_eq!(unsplit.groups_split, 0);
        assert_eq!(unsplit.stolen_tasks, 0, "{unsplit:?}");
    }
}
