//! Skew-aware group splitting — the paper's δ-repartitioning (§6,
//! Algorithm 3) promoted from a CL-P special case into a reusable subsystem
//! that any grouped join can opt into.
//!
//! Per-key group sizes of a prefix-filtering join follow the corpus's Zipf
//! skew: one hot token's posting list can hold a whole stage hostage while
//! every other slot idles. The pieces here attack that in two steps:
//!
//! 1. **Decide** ([`SkewBudget`]): one value says whether and at what
//!    budget a grouped join splits — off, a fixed budget (CL-P's δ is
//!    `Fixed(δ)`), or an automatic budget derived from the slot count and
//!    the exact group sizes the grouping shuffle just produced
//!    ([`SkewBudget::resolve`]).
//! 2. **Split** ([`SplitPlan`], [`split_grouped_join`]): groups over the
//!    budget are broken into balanced sub-partitions of at most `budget`
//!    members, spread across the cluster with the composite `(key, sub)`
//!    partitioner, self-joined chunk by chunk and R-S-joined for every chunk
//!    pair — exactly the CL-P mechanics, with the join kernels injected as
//!    closures so the engine stays algorithm-agnostic.
//!
//! The executor's dynamic task claiming (the claim loop behind
//! [`crate::executor::run_tasks`]) is what makes the split pay off: chunk
//! tasks backfill idle slots instead of queueing behind their siblings on a
//! static assignment. [`SplitStats::stolen_tasks`] reports how often that
//! backfill actually happened (see [`crate::executor::steal_count`]).

#![warn(clippy::indexing_slicing)]

use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::dataset::Dataset;
use crate::shuffle::CompositePartitioner;

/// The skew-handling policy of a join: whether (and at what budget) oversized
/// key groups are split into sub-partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewBudget {
    /// No splitting (the default): every key group is joined as one task.
    #[default]
    Off,
    /// Derive the budget from the slot count and the exact group sizes
    /// ([`SkewBudget::resolve`]); skip splitting entirely when the largest
    /// group already fits the budget.
    Auto,
    /// Split every group larger than the given budget — the paper's δ. The
    /// join drivers reject `Fixed(0)`.
    Fixed(usize),
}

impl SkewBudget {
    /// Resolves the policy against a key-grouped dataset: the chunk budget
    /// to split with, or `None` to run unsplit.
    ///
    /// `Fixed(b)` is `b` (a `Fixed(0)` that reaches here splits into single
    /// members). `Auto` reads the exact group lengths — the grouping shuffle
    /// produced them, no sample is needed — and derives
    ///
    /// ```text
    /// budget = max(p95, ⌈max / (2·slots)⌉)
    /// ```
    ///
    /// from the nearest-rank p95 and the maximum length. The p95 floor keeps
    /// typical groups unsplit (splitting them buys no balance and costs
    /// chunk-pair joins); the `max / (2·slots)` term caps the hottest group
    /// at about `2·slots` chunks, enough self-join tasks to occupy every
    /// slot without exploding the quadratic number of chunk-pair R-S tasks.
    /// When the largest group fits that budget, `Auto` resolves to `None`:
    /// a no-skew join keeps its exact unsplit stage structure.
    pub fn resolve<K, V>(&self, grouped: &Dataset<(K, Vec<V>)>) -> Option<NonZeroUsize>
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        match *self {
            SkewBudget::Off => None,
            SkewBudget::Fixed(budget) => {
                Some(NonZeroUsize::new(budget).unwrap_or(NonZeroUsize::MIN))
            }
            SkewBudget::Auto => {
                let mut sizes: Vec<usize> = (0..grouped.num_partitions())
                    .flat_map(|p| {
                        grouped
                            .partition(p)
                            .iter()
                            .map(|(_, members)| members.len())
                    })
                    .collect();
                sizes.sort_unstable();
                let max = sizes.last().copied()?;
                let rank = (95 * sizes.len()).div_ceil(100);
                let p95 = sizes.get(rank.saturating_sub(1)).copied().unwrap_or(max);
                let slots = grouped.cluster().config().task_slots().max(1);
                let budget = p95.max(max.div_ceil(2 * slots));
                NonZeroUsize::new(budget).filter(|budget| max > budget.get())
            }
        }
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
    budget: NonZeroUsize,
}

impl SplitPlan {
    /// Plans the split of a group of `len` members under `budget`.
    pub fn new(len: usize, budget: NonZeroUsize) -> Self {
        Self { len, budget }
    }

    /// Number of chunks: `⌈len / budget⌉` (0 for an empty group).
    pub fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.budget.get())
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
                (1..=self.budget.get()).contains(&size),
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
/// The task that holds a whole large group cuts its chunks
/// (`{label}/split-large-groups`) and, in a second pass over the same
/// groups, emits every chunk pair (`…/pair-large-groups`): the pairs need no
/// shuffle to meet. The stages, in order: `…/join-small-groups`,
/// `…/split-large-groups`, `…/spread-chunks`, `…/join-chunks`,
/// `…/pair-large-groups`, `…/spread-chunk-pairs`, `…/rs-join-chunks` — two
/// shuffles, the two spreads.
pub fn split_grouped_join<K, M, O, SJ, CJ>(
    grouped: &Dataset<(K, Vec<M>)>,
    budget: NonZeroUsize,
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
    let cluster = grouped.cluster();
    let stages_before = cluster.inner.metrics.stage_count();
    let groups_split = AtomicU64::new(0);
    let chunks_created = AtomicU64::new(0);
    let rs_joins = AtomicU64::new(0);
    let plan_of = |members: &[M]| {
        let plan = SplitPlan::new(members.len(), budget);
        plan.is_split().then_some(plan)
    };
    let spread = CompositePartitioner::new(partitions.saturating_mul(2).max(1));

    // Small groups join as usual.
    let small = grouped.flat_map(&format!("{label}/join-small-groups"), |(key, members)| {
        if plan_of(members).is_none() {
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
        let Some(plan) = plan_of(members) else {
            return Vec::new();
        };
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
    let self_hits = chunks
        .partition_by(&format!("{label}/spread-chunks"), &spread)
        .flat_map(&format!("{label}/join-chunks"), |((key, _), chunk)| {
            self_join(*key, chunk)
        });
    // Every unordered pair of chunks of one key is R-S joined, emitted by
    // the task that holds the whole group. (The paper realizes this as a
    // Spark self-join of the chunk RDD keyed by token, keeping pairs with
    // sub₁ < sub₂ — the pairs below carry exactly the same chunk replicas.)
    let chunk_pairs = grouped.flat_map(&format!("{label}/pair-large-groups"), |(key, members)| {
        let Some(plan) = plan_of(members) else {
            return Vec::new();
        };
        let chunks = plan.chunks(members);
        plan.chunk_pairs()
            .into_iter()
            .filter_map(|(i, j)| {
                let (left, right) = (chunks.get(i as usize)?, chunks.get(j as usize)?);
                Some(((*key, i, j), (left.to_vec(), right.to_vec())))
            })
            .collect::<Vec<_>>()
    });
    let rs_results = chunk_pairs
        .partition_by(&format!("{label}/spread-chunk-pairs"), &spread)
        .flat_map(
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

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("a non-zero budget")
    }

    #[test]
    fn split_plan_balances_and_tiles() {
        let plan = SplitPlan::new(10, nz(3));
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
        assert_eq!(SplitPlan::new(0, nz(5)).num_chunks(), 0);
        assert!(SplitPlan::new(0, nz(5)).chunk_bounds().is_empty());
        assert!(SplitPlan::new(0, nz(5)).chunk_pairs().is_empty());
        assert_eq!(SplitPlan::new(5, nz(5)).num_chunks(), 1);
        assert!(!SplitPlan::new(5, nz(5)).is_split());
        // Budget 1: one chunk per member.
        assert_eq!(SplitPlan::new(3, nz(1)).num_chunks(), 3);
    }

    #[test]
    fn chunk_pairs_enumerate_upper_triangle() {
        let plan = SplitPlan::new(10, nz(3)); // 4 chunks
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
                let plan = SplitPlan::new(len, nz(budget));
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

    /// A grouped dataset with one group per entry of `sizes`.
    fn groups_of(c: &Cluster, sizes: &[usize]) -> Dataset<(u32, Vec<u8>)> {
        let groups = (0u32..).zip(sizes).map(|(key, &len)| (key, vec![0u8; len]));
        c.parallelize(groups.collect(), 3)
    }

    /// `Auto` reads the exact group lengths: the budget is
    /// `max(p95, ⌈max / (2·slots)⌉)` to the member, and a join whose largest
    /// group fits it does not split.
    #[test]
    fn auto_budget_is_exact_from_group_sizes() {
        let auto = |slots: usize, sizes: &[usize]| {
            let c = Cluster::new(ClusterConfig::local(slots));
            SkewBudget::Auto
                .resolve(&groups_of(&c, sizes))
                .map(NonZeroUsize::get)
        };
        // 19 groups of 8 and one of 640: nearest-rank p95 over 20 sizes is
        // the 19th, 8; ⌈640 / 8⌉ = 80 on four slots, ⌈640 / 2⌉ = 320 on one.
        let hot: Vec<usize> = std::iter::repeat_n(8, 19).chain([640]).collect();
        assert_eq!(auto(4, &hot), Some(80));
        assert_eq!(auto(1, &hot), Some(320));
        // 18 groups of 50, one of 60, one of 64: the p95 (60) beats
        // ⌈64 / 8⌉ = 8, and the 64-member group still exceeds it.
        let tail: Vec<usize> = std::iter::repeat_n(50, 18).chain([60, 64]).collect();
        assert_eq!(auto(4, &tail), Some(60));
        // One member over ⌈641 / 8⌉ = 81: a budget of 81 still splits 641.
        let odd: Vec<usize> = std::iter::repeat_n(8, 19).chain([641]).collect();
        assert_eq!(auto(4, &odd), Some(81));
        // Flat sizes, and no groups at all, resolve to no split.
        assert_eq!(auto(4, &[8; 40]), None);
        assert_eq!(auto(4, &[]), None);
    }

    #[test]
    fn fixed_and_off_resolve_without_looking() {
        let c = Cluster::new(ClusterConfig::local(2));
        let grouped = groups_of(&c, &[60, 1, 1]);
        assert_eq!(SkewBudget::Off.resolve(&grouped), None);
        assert_eq!(SkewBudget::Fixed(7).resolve(&grouped), Some(nz(7)));
        assert_eq!(SkewBudget::Fixed(100).resolve(&grouped), Some(nz(100)));
        assert_eq!(SkewBudget::Fixed(0).resolve(&grouped), Some(nz(1)));
        assert!(c.metrics().stages.is_empty(), "resolving runs no stage");
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
        run_split_on(&Cluster::new(ClusterConfig::local(4)), groups, budget)
    }

    fn run_split_on(
        c: &Cluster,
        groups: Vec<(u32, Vec<u32>)>,
        budget: usize,
    ) -> (HashSet<(u32, u32)>, SplitStats) {
        let grouped = c.parallelize(groups, 3);
        let (hits, stats) = split_grouped_join(
            &grouped,
            nz(budget),
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

    /// The split join's stages, in order. The chunk pairs leave the task
    /// that holds the whole group, so the only shuffles are the two spreads
    /// — no regrouping of chunks by key between them.
    #[test]
    fn split_join_runs_seven_stages_and_two_shuffles() {
        let c = Cluster::new(ClusterConfig::local(4));
        let groups = vec![(1u32, (0..10).collect::<Vec<u32>>()), (2, vec![100, 101])];
        let (_, stats) = run_split_on(&c, groups, 3);
        assert_eq!(stats.rs_joins, 6);
        let report = c.metrics();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "t/join-small-groups",
                "t/split-large-groups",
                "t/spread-chunks",
                "t/join-chunks",
                "t/pair-large-groups",
                "t/spread-chunk-pairs",
                "t/rs-join-chunks",
            ]
        );
        let shuffles: Vec<&str> = report
            .stages
            .iter()
            .filter(|s| s.shuffle_records > 0)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(shuffles, ["t/spread-chunks", "t/spread-chunk-pairs"]);
        // Four chunks are shuffled once each; the six chunk pairs carry two
        // chunks each.
        assert_eq!(report.total_shuffle_records(), 4 + 6);
    }

    /// The reversed schedule claims every task of an 8-task stage on 4 slots
    /// off its round-robin slot. A split join's chunk stages count those
    /// claims as steals; a join that splits nothing runs only the chunk
    /// stages' empty tasks and reports 0.
    #[test]
    fn steals_are_counted_only_when_a_group_splits() {
        let config = ClusterConfig::local(4).with_schedule(crate::sched::Schedule::Reversed);
        let groups = vec![(1u32, (0..10).collect::<Vec<u32>>()), (2, vec![100, 101])];
        let (_, split) = run_split_on(&Cluster::new(config.clone()), groups.clone(), 3);
        assert_eq!(split.groups_split, 1);
        assert!(split.stolen_tasks > 0, "{split:?}");
        let (_, unsplit) = run_split_on(&Cluster::new(config), groups, 10);
        assert_eq!(unsplit.groups_split, 0);
        assert_eq!(unsplit.stolen_tasks, 0, "{unsplit:?}");
    }
}
