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
//!    members and cut into join units, the upper triangle of the group's
//!    pair matrix in chunk blocks: each chunk (self-joined) and each chunk
//!    pair (R-S-joined). One shuffle spreads the units across the cluster
//!    with the composite `(key, i, j)` partitioner and one stage joins them
//!    — exactly the CL-P mechanics, with the join kernels injected as
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

/// One join unit of a split group, as [`SplitPlan::units`] lists them: the
/// chunk block `(i, j)` and the members of its left and right chunks (the
/// right one empty on the diagonal).
pub type JoinUnit<'a, T> = ((u32, u32), &'a [T], &'a [T]);

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
    fn chunk_bounds(&self) -> Vec<(usize, usize)> {
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

    /// The group's join units: the upper triangle of its pair matrix in
    /// chunk blocks, `((i, j), left, right)` for every `i ≤ j`, row by row.
    /// A diagonal unit `(i, i)` is chunk `i` itself (`right` is empty) and
    /// self-joins; an off-diagonal unit `(i, j)` pairs chunk `i` with chunk
    /// `j` for an R-S join. Every member pair lies in exactly one unit.
    /// `items.len()` must equal the planned `len`.
    #[expect(
        clippy::indexing_slicing,
        reason = "chunk bounds tile 0..len exactly; items.len() == len is asserted above"
    )]
    pub fn units<'a, T>(&self, items: &'a [T]) -> Vec<JoinUnit<'a, T>> {
        debug_assert_eq!(items.len(), self.len, "plan was made for another group");
        let chunks: Vec<&[T]> = self
            .chunk_bounds()
            .into_iter()
            .map(|(start, end)| &items[start..end])
            .collect();
        let mut out: Vec<JoinUnit<'a, T>> =
            Vec::with_capacity(chunks.len() * (chunks.len() + 1) / 2);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "split plans make at most a few hundred chunks — fits u32"
        )]
        for (i, &left) in chunks.iter().enumerate() {
            out.push(((i as u32, i as u32), left, &[]));
            for (j, &right) in chunks.iter().enumerate().skip(i + 1) {
                out.push(((i as u32, j as u32), left, right));
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
    /// Tasks of the join-units stage (`…/join-chunks`) that the dynamic
    /// claim placed on a non-home slot (work stealing; see
    /// [`crate::executor::steal_count`]). 0 when no group was split;
    /// otherwise empty tasks that moved count too.
    pub stolen_tasks: u64,
}

/// Joins a key-grouped dataset with bounded per-task group sizes: groups of
/// ≤ `budget` members run `self_join` directly; larger groups are cut by a
/// [`SplitPlan`] into their join units, spread across `2 × partitions`
/// targets with the composite `(key, i, j)` partitioner, and joined unit by
/// unit — Algorithm 3 of the paper with the kernels injected.
///
/// `self_join(key, members)` must emit every qualifying pair within
/// `members`; `cross_join(key, left, right)` every qualifying pair with one
/// side in each. A diagonal unit runs `self_join` on its chunk, an
/// off-diagonal one `cross_join` on its chunk pair. Together with the
/// coverage of [`SplitPlan::units`] this makes the union of all stage
/// outputs contain exactly the unsplit join's pairs, each pair of one key's
/// members once (a pair found via several keys is the caller's to
/// deduplicate or to assign to one key).
///
/// The task that holds a whole large group cuts it into its units
/// (`{label}/split-large-groups`): a unit carries its chunk, or both chunks
/// of its pair, so nothing regroups after the one shuffle. The stages, in
/// order: `…/join-small-groups`, `…/split-large-groups`, `…/spread-chunks`,
/// `…/join-chunks`.
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
    let plan_of = |members: &[M]| {
        let plan = SplitPlan::new(members.len(), budget);
        plan.is_split().then_some(plan)
    };

    // Small groups join as usual.
    let small = grouped.flat_map(&format!("{label}/join-small-groups"), |(key, members)| {
        if plan_of(members).is_none() {
            self_join(*key, members)
        } else {
            Vec::new()
        }
    });
    // Large groups are cut into their join units, which the composite
    // partitioner of §6 spreads across the cluster by (key, i, j). (The
    // paper builds the chunk pairs as a Spark self-join of the chunk RDD
    // keyed by token, keeping sub₁ < sub₂; the units carry exactly the same
    // chunk replicas.)
    let units = grouped
        .flat_map(&format!("{label}/split-large-groups"), |(key, members)| {
            let Some(plan) = plan_of(members) else {
                return Vec::new();
            };
            plan.units(members)
                .into_iter()
                .map(|((i, j), left, right)| ((*key, i, j), (left.to_vec(), right.to_vec())))
                .collect::<Vec<_>>()
        })
        .partition_by(
            &format!("{label}/spread-chunks"),
            &CompositePartitioner::new(partitions.saturating_mul(2).max(1)),
        );
    let mut stats = SplitStats::default();
    for p in 0..units.num_partitions() {
        for &((_, i, j), _) in units.partition(p) {
            stats.groups_split += u64::from(i == 0 && j == 0);
            stats.chunks += u64::from(i == j);
            stats.rs_joins += u64::from(i != j);
        }
    }
    let join_chunks = format!("{label}/join-chunks");
    let unit_hits = units.flat_map(&join_chunks, |((key, i, j), (left, right))| {
        if i == j {
            self_join(*key, left)
        } else {
            cross_join(*key, left, right)
        }
    });

    // Steal accounting: the stolen-task count of the join stage this call
    // just recorded (the before/after slice keeps repeated joins on one
    // cluster from double counting). With no group split that stage runs
    // only its `2 × partitions` empty tasks, so the count is 0. Once a group
    // splits, every moved task counts, empty ones included.
    if stats.groups_split > 0 {
        let report = cluster.metrics();
        stats.stolen_tasks = report
            .stages
            .iter()
            .skip(stages_before)
            .filter(|s| s.name == join_chunks)
            .map(|s| s.stolen_tasks(report.slots) as u64)
            .sum();
    }
    (small.union(&unit_hits), stats)
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

    /// The `(i, j)` block indices of a plan's units over `len` members.
    fn unit_blocks(plan: &SplitPlan, len: usize) -> Vec<(u32, u32)> {
        let items: Vec<usize> = (0..len).collect();
        plan.units(&items)
            .into_iter()
            .map(|(ij, _, _)| ij)
            .collect()
    }

    #[test]
    fn split_plan_balances_and_tiles() {
        let plan = SplitPlan::new(10, nz(3));
        assert_eq!(plan.num_chunks(), 4);
        assert!(plan.is_split());
        // Balanced: sizes 3,3,2,2 — never the greedy 3,3,3,1.
        assert_eq!(plan.chunk_bounds(), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        let items: Vec<u32> = (0..10).collect();
        let flat: Vec<u32> = plan
            .units(&items)
            .into_iter()
            .filter(|((i, j), _, _)| i == j)
            .flat_map(|(_, chunk, _)| chunk.iter().copied())
            .collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn split_plan_edge_cases() {
        assert_eq!(SplitPlan::new(0, nz(5)).num_chunks(), 0);
        assert!(unit_blocks(&SplitPlan::new(0, nz(5)), 0).is_empty());
        assert_eq!(SplitPlan::new(5, nz(5)).num_chunks(), 1);
        assert!(!SplitPlan::new(5, nz(5)).is_split());
        // A group within budget is one unit: the whole group, self-joined.
        let members = [7u8; 5];
        let units = SplitPlan::new(5, nz(5)).units(&members);
        assert_eq!(units, vec![((0, 0), &members[..], &[][..])]);
        // Budget 1: one chunk per member, and a unit per member pair.
        assert_eq!(SplitPlan::new(3, nz(1)).num_chunks(), 3);
        assert_eq!(unit_blocks(&SplitPlan::new(3, nz(1)), 3).len(), 3 + 3);
    }

    #[test]
    fn chunk_pairs_enumerate_upper_triangle() {
        let plan = SplitPlan::new(10, nz(3)); // 4 chunks
        assert_eq!(
            unit_blocks(&plan, 10),
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 2),
                (2, 3),
                (3, 3)
            ]
        );
    }

    /// Property sweep: for every (len, budget) shape up to 48×9, the
    /// diagonal units are the chunks (they tile the member range gaplessly,
    /// every chunk within budget), no unit repeats, and every member pair
    /// lies in exactly one unit — so joining every unit examines each member
    /// pair once.
    #[test]
    fn split_plan_covers_every_member_pair_exactly_once() {
        for len in 0..=48usize {
            for budget in 1..=9usize {
                let plan = SplitPlan::new(len, nz(budget));
                let items: Vec<usize> = (0..len).collect();
                let units = plan.units(&items);
                // The diagonal units are the chunks, in order: a gapless
                // tiling, each chunk non-empty and within budget.
                let mut cursor = 0;
                let mut chunks = 0;
                for ((i, j), left, right) in &units {
                    if i != j {
                        assert!(i < j && !right.is_empty(), "len {len} budget {budget}");
                        continue;
                    }
                    assert_eq!(*i, chunks, "len {len} budget {budget}");
                    assert!(right.is_empty());
                    assert_eq!(left.first(), Some(&cursor), "len {len} budget {budget}");
                    assert!(left.len() <= budget);
                    cursor += left.len();
                    chunks += 1;
                }
                assert_eq!(cursor, len, "len {len} budget {budget}");
                assert_eq!(chunks as usize, plan.num_chunks());
                let blocks: HashSet<(u32, u32)> = units.iter().map(|&(ij, _, _)| ij).collect();
                assert_eq!(blocks.len(), units.len(), "no unit repeats");
                // Every member pair lies in exactly one unit: both members
                // in a diagonal unit's chunk, or one on each side of an
                // off-diagonal unit.
                let mut holders = vec![0u32; len * len];
                for ((i, j), left, right) in &units {
                    for (a, &x) in left.iter().enumerate() {
                        let partners = if i == j { &left[a + 1..] } else { *right };
                        for &y in partners {
                            holders[x.min(y) * len + x.max(y)] += 1;
                        }
                    }
                }
                for x in 0..len {
                    for y in (x + 1)..len {
                        let held = holders[x * len + y];
                        assert_eq!(held, 1, "pair ({x},{y}) len {len} budget {budget}");
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

    /// The split join's stages, in order. The task that holds a whole group
    /// cuts it into its join units, so the only shuffle is their spread.
    #[test]
    fn split_join_runs_four_stages_and_one_shuffle() {
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
            ]
        );
        let shuffles: Vec<&str> = report
            .stages
            .iter()
            .filter(|s| s.shuffle_records > 0)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(shuffles, ["t/spread-chunks"]);
        // The four chunk units are shuffled once each; the six chunk-pair
        // units carry two chunks each.
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
