//! Allocation budgets, measured: a counting global allocator bounds what the
//! hot paths allocate **per candidate, per pair, per query and per record**,
//! on the real code with its callees included.
//!
//! The paper's case for VJ-NL (§4.1) is that verification which streams over
//! a group, instead of materialising state per candidate, is kinder to the
//! runtime's memory behaviour. This file is where that property is pinned:
//! the assertions are shapes (what a count may depend on), not totals, so
//! they hold on any corpus and fail with the offending number when a `Vec`
//! appears per candidate, per probe or per posting entry. Each test prints
//! its rows of the table DESIGN.md §10 quotes (`cargo test --test
//! alloc_budget -- --nocapture`).
//!
//! Every measured call runs on the measuring thread — kernels are called
//! directly, joins run on `ClusterConfig::local(1)`, whose stages execute
//! inline — because the counter is per thread: `cargo test` runs the other
//! tests of this file concurrently.

// The one `unsafe` in the tree: a `GlobalAlloc` cannot be written without
// it. The workspace lint stays `deny`.
#![allow(unsafe_code)]
// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::let_underscore_must_use
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use minispark::{Cluster, ClusterConfig};
use topk_datagen::CorpusProfile;
use topk_rankings::distance::raw_threshold;
use topk_rankings::verify::verify_candidate;
use topk_rankings::{FrequencyTable, OrderedRanking, PrefixKind, Ranking};
use topk_simjoin::kernels::{join_group_nested_loop, GroupThresholds, JoinMode, TokenEntry};
use topk_simjoin::pipeline::order_rankings;
use topk_simjoin::{
    clp_join, vj_join, JoinConfig, JoinStats, RankingIndex, ServingConfig, ServingIndex,
};

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread.
    /// A `const`-initialised `Cell` has no lazy state and no destructor, so
    /// reading it from inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above; `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above; `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations this thread made meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

const K: usize = 10;
const THETA: f64 = 0.3;
const SIZES: [usize; 3] = [200, 400, 800];

fn corpus(n: usize) -> Vec<Ranking> {
    CorpusProfile::orku_like(n, K).generate()
}

/// The token group of the corpus' most frequent item: the first `n` rankings
/// that hold it, as the pipeline would hand them to a group kernel.
fn hottest_group(data: &[Ranking], n: usize) -> Vec<TokenEntry> {
    let freq = FrequencyTable::from_rankings(data);
    let token = data
        .iter()
        .flat_map(|r| r.items().iter().copied())
        .max_by_key(|&item| (freq.count(item), item))
        .expect("non-empty corpus");
    let group: Vec<TokenEntry> = data
        .iter()
        .filter_map(|r| {
            let rank = r.items().iter().position(|&item| item == token)?;
            let ordered = Arc::new(OrderedRanking::by_frequency(r, &freq));
            Some(TokenEntry::plain(rank as u16, ordered))
        })
        .take(n)
        .collect();
    assert_eq!(group.len(), n, "the corpus is too small for a group of {n}");
    group
}

/// A synthetic group: `twins` pairs of identical rankings and `fillers`
/// rankings that share nothing but the group token (item 0, rank 0) — so it
/// has exactly `twins` results however many candidates the fillers add.
fn planted_group(twins: usize, fillers: usize) -> Vec<TokenEntry> {
    let items = |seed: usize| -> Vec<u32> {
        let base = 1 + (seed * (K - 1)) as u32;
        std::iter::once(0)
            .chain(base..base + (K - 1) as u32)
            .collect()
    };
    let seeds = (0..twins).chain(0..twins).chain(twins..twins + fillers);
    seeds
        .enumerate()
        .map(|(id, seed)| {
            let ranking = Ranking::new_unchecked(id as u64, items(seed));
            TokenEntry::plain(0, Arc::new(OrderedRanking::by_rank(&ranking)))
        })
        .collect()
}

/// One kernel call, measured.
struct KernelRun {
    kernel: &'static str,
    entries: usize,
    candidates: u64,
    results: usize,
    allocations: u64,
    /// What building the output alone allocates: the same number of pushes
    /// into a fresh `Vec` of the same element type.
    output_allocations: u64,
}

impl KernelRun {
    fn measure(
        kernel: &'static str,
        entries: &[TokenEntry],
        join: impl FnOnce(&JoinStats) -> Vec<(usize, usize, u64)>,
    ) -> Self {
        let stats = JoinStats::default();
        let (made, hits) = allocations(|| join(&stats));
        let (output_allocations, copy) = allocations(|| {
            let mut out = Vec::new();
            for &hit in &hits {
                out.push(hit);
            }
            out
        });
        assert_eq!(copy, hits);
        Self {
            kernel,
            entries: entries.len(),
            candidates: stats.snapshot().candidates,
            results: hits.len(),
            allocations: made,
            output_allocations,
        }
    }

    fn assert_allocates_its_output_only(&self) {
        assert_eq!(
            self.allocations,
            self.output_allocations,
            "{} over {} entries ({} candidates, {} results) allocated {} times; pushing its \
             results into a Vec allocates {}",
            self.kernel,
            self.entries,
            self.candidates,
            self.results,
            self.allocations,
            self.output_allocations
        );
    }
}

/// The group kernel over `entries` at θ.
fn run_kernel(entries: &[TokenEntry]) -> KernelRun {
    let thresholds = GroupThresholds::Uniform(raw_threshold(K, THETA));
    KernelRun::measure("join_group_nested_loop", entries, |stats| {
        join_group_nested_loop(entries, &thresholds, true, JoinMode::SelfJoin, stats)
    })
}

#[test]
fn group_kernel_allocates_its_output_and_nothing_per_candidate() {
    let data = corpus(20_000);
    println!("kernel                  entries  candidates  results  allocations");
    for n in SIZES {
        let run = run_kernel(&hottest_group(&data, n));
        println!(
            "{:<23} {n:>7} {:>11} {:>8} {:>12}",
            run.kernel, run.candidates, run.results, run.allocations
        );
        run.assert_allocates_its_output_only();
    }

    // The same results from four times the candidates cost the same.
    let small = run_kernel(&planted_group(40, 20));
    let large = run_kernel(&planted_group(40, 120));
    assert_eq!(small.results, 40, "the planted twins are the only results");
    assert_eq!(large.results, small.results);
    assert!(
        large.candidates >= 4 * small.candidates,
        "{} vs {} candidates",
        large.candidates,
        small.candidates
    );
    assert_eq!(
        large.allocations, small.allocations,
        "{}: {} candidates allocated {} times, {} candidates {} times",
        large.kernel, large.candidates, large.allocations, small.candidates, small.allocations
    );
}

#[test]
fn verifying_a_pair_allocates_nothing() {
    let data = corpus(400);
    let freq = FrequencyTable::from_rankings(&data);
    let ordered: Vec<OrderedRanking> = data
        .iter()
        .map(|r| OrderedRanking::by_frequency(r, &freq))
        .collect();
    let theta_raw = raw_threshold(K, THETA);
    let pairs = || {
        ordered
            .iter()
            .enumerate()
            .flat_map(|(i, a)| ordered.iter().skip(i + 1).map(move |b| (a, b)))
    };
    let (allocs, within) = allocations(|| {
        pairs()
            .filter(|(a, b)| a.footrule_within(b, theta_raw).is_some())
            .count()
    });
    println!(
        "OrderedRanking::footrule_within  {} pairs, {within} within θ: {allocs} allocations",
        pairs().count()
    );
    assert_eq!(allocs, 0, "footrule_within allocated");
    let (allocs, checked) = allocations(|| {
        pairs()
            .filter(|(a, b)| {
                verify_candidate(a, b, Some((0, 3)), theta_raw, true)
                    .distance()
                    .is_some()
            })
            .count()
    });
    println!("verify_candidate                 {checked} within θ: {allocs} allocations");
    assert_eq!(allocs, 0, "verify_candidate allocated");
}

/// Mean allocations of `query(q)` over the first 100 rankings of `data`.
fn per_query(data: &[Ranking], query: impl Fn(&Ranking) -> usize) -> (f64, f64) {
    let queries = &data[..100];
    let (allocs, results) = allocations(|| queries.iter().map(&query).sum::<usize>());
    let n = queries.len() as f64;
    (allocs as f64 / n, results as f64 / n)
}

#[test]
fn a_query_costs_the_same_on_a_larger_index() {
    let data = corpus(SIZES[2]);
    println!("probe                    indexed  results/query  allocations/query");
    let mut direct = Vec::new();
    let mut served = Vec::new();
    for n in SIZES {
        let index = RankingIndex::build(&data[..n], THETA).expect("uniform corpus");
        let (allocs, results) = per_query(&data, |q| {
            index.range_query(q, THETA).expect("θ = theta_max").len()
        });
        println!("RankingIndex::range_query {n:>7} {results:>14.1} {allocs:>18.1}");
        direct.push(allocs);

        let service = ServingIndex::ephemeral(ServingConfig::new(THETA)).expect("ephemeral");
        service.upsert_batch(&data[..n]).expect("uniform corpus");
        let (allocs, results) = per_query(&data, |q| {
            service.query(q, THETA).expect("θ = theta_max").len()
        });
        println!("ServingIndex::query       {n:>7} {results:>14.1} {allocs:>18.1}");
        served.push(allocs);
    }
    for (name, rows) in [("range_query", direct), ("ServingIndex::query", served)] {
        assert!(
            (rows[2] - rows[0]).abs() <= 1.0,
            "{name}: {:.1} allocations per query on {} rankings, {:.1} on {} — a query \
             allocates per result buffer, not per posting entry",
            rows[0],
            SIZES[0],
            rows[2],
            SIZES[2]
        );
    }
}

#[test]
fn a_join_allocates_less_per_record_as_its_input_grows() {
    let data = corpus(SIZES[2]);
    let clp = JoinConfig::new(THETA)
        .with_cluster_threshold(0.03)
        .with_partition_threshold(50);
    type Join = fn(&Cluster, &[Ranking], &JoinConfig) -> usize;
    // VJ's ceiling at the largest size: ordering's 2 allocations per record
    // (the `Arc` and the canonical pairs), plus at most 1 per record for
    // everything paid per stage and per partition. Emission writes each
    // partition's entries into one `Vec` and the group-by keeps a partition's
    // groups in one run buffer, so neither adds one per record or per group.
    // Measured: 2.9 (5.8 when emission collected a `Vec` per record and the
    // group-by one per group).
    let joins: [(&str, JoinConfig, Join, Option<f64>); 2] = [
        (
            "vj_join",
            JoinConfig::new(THETA),
            |c, d, cfg| vj_join(c, d, cfg).expect("uniform corpus").pairs.len(),
            Some(3.0),
        ),
        (
            "clp_join",
            clp,
            |c, d, cfg| clp_join(c, d, cfg).expect("uniform corpus").pairs.len(),
            None,
        ),
    ];
    println!("join      records    pairs  allocations/record");
    for (name, config, join, ceiling) in joins {
        // One warm-up run, so every size sees the same lazily initialised
        // state.
        let cluster = Cluster::new(ClusterConfig::local(1));
        join(&cluster, &data, &config);
        let mut per_record = Vec::new();
        for n in SIZES {
            let cluster = Cluster::new(ClusterConfig::local(1));
            let (allocs, pairs) = allocations(|| join(&cluster, &data[..n], &config));
            per_record.push(allocs as f64 / n as f64);
            println!(
                "{name:<9} {n:>7} {pairs:>8} {:>19.1}",
                allocs as f64 / n as f64
            );
        }
        assert!(
            per_record.windows(2).all(|w| w[1] <= w[0]),
            "{name}: allocations per record {per_record:.1?} over {SIZES:?} records — the \
             per-stage and per-group costs amortise, nothing is allocated per candidate"
        );
        if let Some(ceiling) = ceiling {
            assert!(
                per_record[2] <= ceiling,
                "{name}: {:.2} allocations per record on {} records, over the ceiling of \
                 {ceiling} — emission or grouping allocates per record or per group",
                per_record[2],
                SIZES[2]
            );
        }
    }
}

/// Grouping allocates per partition, not per group: the same records under
/// 40, 400 or 4 000 distinct keys cost the same. (`group_by_key`, which
/// copies each group out into a `Vec` of its own, is printed for contrast.)
#[test]
fn grouping_allocates_per_partition_not_per_group() {
    const RECORDS: u64 = 4_000;
    const PARTITIONS: usize = 4;
    println!("grouping          groups  allocations");
    let mut runs = Vec::new();
    for groups in [40, 400, 4_000] {
        let cluster = Cluster::new(ClusterConfig::local(1));
        let records: Vec<(u64, u64)> = (0..RECORDS).map(|n| (n % groups, n)).collect();
        let input = cluster.parallelize(records.clone(), PARTITIONS);
        let (allocs, grouped) = allocations(|| input.into_group_runs("runs", PARTITIONS));
        assert_eq!(grouped.num_groups() as u64, groups);
        println!("into_group_runs {groups:>8} {allocs:>12}");
        runs.push(allocs);

        let input = cluster.parallelize(records, PARTITIONS);
        let (allocs, _) = allocations(|| input.group_by_key("copied", PARTITIONS));
        println!("group_by_key    {groups:>8} {allocs:>12}");
    }
    assert!(
        runs.iter().all(|&allocs| allocs == runs[0]),
        "into_group_runs allocated {runs:?} times for 40, 400 and 4 000 groups — a group costs \
         an allocation"
    );
    assert!(
        runs[0] < 40 * PARTITIONS as u64,
        "{} allocations for {PARTITIONS} partitions",
        runs[0]
    );
}

#[test]
fn ordering_allocates_per_record_what_canonicalizing_it_does() {
    let data = corpus(SIZES[2]);
    // What a record costs on its own: its canonical form behind an `Arc`.
    let freq = FrequencyTable::from_rankings(&data);
    let (direct, _) = allocations(|| {
        data.iter()
            .map(|r| Arc::new(OrderedRanking::by_frequency(r, &freq)))
            .collect::<Vec<_>>()
    });
    // The `Arc` and one slice for the canonical pairs and the item-sorted
    // shadow together; plus the one `Vec` collecting them. The corpus has
    // k = 10, which is ordered by counting on the stack, with no key buffer.
    assert!(
        direct <= 2 * data.len() as u64 + 1,
        "canonicalizing {} records allocated {direct} times; per record the `Arc` and the \
         pairs' one slice are two",
        data.len()
    );
    let direct = direct as f64 / data.len() as f64;
    println!("ordering        records  allocations/record");
    let mut totals = Vec::new();
    for n in SIZES {
        let cluster = Cluster::new(ClusterConfig::local(1));
        let partitions = cluster.config().default_partitions;
        let (allocs, ordered) = allocations(|| {
            order_rankings(
                &cluster,
                &data[..n],
                PrefixKind::Overlap,
                partitions,
                "order",
            )
        });
        assert_eq!(ordered.count(), n);
        println!("order_rankings {n:>8} {:>19.1}", allocs as f64 / n as f64);
        totals.push(allocs);
    }
    // Everything else — stages, per-partition count maps, the frequency
    // table — is paid per stage, partition or distinct item. A copy of the
    // input or a `Vec` per ranking's occurrences adds one per record.
    let marginal = (totals[2] - totals[0]) as f64 / (SIZES[2] - SIZES[0]) as f64;
    println!("order_rankings: {marginal:.2} per added record, {direct:.2} to canonicalize one");
    assert!(
        marginal < direct + 0.5,
        "order_rankings allocated {marginal:.2} times per added record; canonicalizing a record \
         allocates {direct:.2} — the input is copied or a record's occurrences are collected"
    );
}

#[test]
fn a_durable_upsert_costs_the_same_on_a_larger_index() {
    let data = corpus(SIZES[2] + 50);
    let (fresh, indexed) = data.split_at(50);
    println!("write                      indexed  allocations/upsert");
    let mut rows = Vec::new();
    for n in [SIZES[0], SIZES[2]] {
        let dir =
            std::env::temp_dir().join(format!("topk-alloc-budget-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No snapshot and no compaction while measuring: those are the
        // O(index) maintenance steps, on their own cadence.
        let config = ServingConfig::new(THETA)
            .with_snapshot_every(0)
            .with_compact_ratio(1.0);
        let (service, _) = ServingIndex::open(&dir, config).expect("fresh state dir");
        service.upsert_batch(&indexed[..n]).expect("uniform corpus");
        let (allocs, ()) = allocations(|| {
            for ranking in fresh {
                service
                    .upsert_batch(std::slice::from_ref(ranking))
                    .expect("WAL append + index insert");
            }
        });
        let per_upsert = allocs as f64 / fresh.len() as f64;
        println!("WAL append + upsert_batch {n:>8} {per_upsert:>19.1}");
        rows.push(per_upsert);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        (rows[1] - rows[0]).abs() <= 2.0,
        "one durable upsert allocated {:.1} times on {} rankings and {:.1} times on {}",
        rows[0],
        SIZES[0],
        rows[1],
        SIZES[2]
    );
}
