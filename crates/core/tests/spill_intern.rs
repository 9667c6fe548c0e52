//! Spill-replay behaviour of the join pipelines.
//!
//! Two properties: (1) forcing the shuffle groups through the spilling
//! group-by must not change any join's pair set, and (2) replaying a
//! spilled partition must re-share `OrderedRanking` allocations through the
//! decode interner instead of materializing one copy per prefix-token
//! occurrence.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::sync::Arc;

use minispark::{Cluster, ClusterConfig, SkewBudget};
use topk_rankings::{FrequencyTable, OrderedRanking, Ranking};
use topk_simjoin::kernels::TokenEntry;
use topk_simjoin::{
    clp_join, jaccard_clp_join, jaccard_vj_join, varlen_join, vj_join, vj_join_rs, vj_nl_join,
    JaccardConfig, JoinConfig, JoinError, JoinOutcome,
};

const K: usize = 5;

/// A deterministic dataset with plenty of near-duplicate rankings so every
/// join style produces a non-trivial pair set.
fn dataset(n: u64) -> Vec<Ranking> {
    (0..n)
        .map(|id| {
            let base = (id % 7) as u32;
            let items: Vec<u32> = (0..K as u32)
                .map(|pos| (base + pos * (1 + (id % 3) as u32)) % 23)
                .collect();
            // Rotate to vary order between near-identical item sets.
            let rot = (id % K as u64) as usize;
            let mut rotated = items.clone();
            rotated.rotate_left(rot);
            Ranking::new(id, dedup_pad(rotated)).expect("valid ranking")
        })
        .collect()
}

/// Makes the item list distinct (rankings require distinct items) while
/// keeping length `K`.
fn dedup_pad(items: Vec<u32>) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(K);
    let mut next_fill = 100;
    for item in items {
        if out.contains(&item) {
            out.push(next_fill);
            next_fill += 1;
        } else {
            out.push(item);
        }
    }
    out
}

#[test]
fn spilled_joins_match_in_memory_joins() {
    let data = dataset(120);
    let right = dataset(70);
    let config = JoinConfig::new(0.35);
    let jaccard = JaccardConfig::new(0.35);
    let plain = Cluster::new(ClusterConfig::local(2));

    // Every driver groups its prefix tokens through the one token-grouped
    // join, so every driver must honour the spill budget — each on a fresh
    // spilling cluster, so a join that silently stays in memory cannot hide
    // behind another one's spills.
    type Join<'a> = &'a dyn Fn(&Cluster) -> Result<JoinOutcome, JoinError>;
    let runs: [(&str, Join); 7] = [
        ("vj", &|c| vj_join(c, &data, &config)),
        ("vj-nl", &|c| vj_nl_join(c, &data, &config)),
        ("cl-p", &|c| clp_join(c, &data, &config)),
        ("vj-rs", &|c| vj_join_rs(c, &data, &right, &config)),
        ("jaccard-vj", &|c| jaccard_vj_join(c, &data, &jaccard)),
        ("jaccard-clp", &|c| jaccard_clp_join(c, &data, &jaccard)),
        ("varlen", &|c| varlen_join(c, &data, 10, 0, SkewBudget::Off)),
    ];
    for (name, join) in runs {
        let spilly = Cluster::new(ClusterConfig::local(2).with_spill_budget(8));
        let baseline = join(&plain).expect("in-memory join");
        let spilled = join(&spilly).expect("spilled join");
        assert!(!baseline.pairs.is_empty(), "{name}: vacuous comparison");
        assert_eq!(
            baseline.pairs, spilled.pairs,
            "{name}: spilling changed the pair set"
        );
        let metrics = spilly.metrics();
        assert!(
            metrics.total_spilled_runs() > 0,
            "{name}: the budget must actually force spills"
        );
        // Each pair leaves the kernels once, from the one token group that
        // owns it, and CL's clusters partition the rankings: no driver
        // shuffles anything to deduplicate.
        let dedups: Vec<&str> = metrics
            .stages
            .iter()
            .filter(|s| s.shuffle_records > 0)
            .map(|s| s.name.as_str())
            .filter(|n| n.contains("dedup") || n.contains("distinct"))
            .collect();
        assert!(dedups.is_empty(), "{name}: dedup shuffles {dedups:?}");
    }
    assert_eq!(plain.metrics().total_spilled_runs(), 0);
}

#[test]
fn replayed_partitions_share_ranking_allocations() {
    // Emit every ranking once per prefix token — the shape of the real
    // prefix shuffle — and group with a budget small enough that most
    // records go through encode → disk → decode. On a single-thread
    // cluster every decode hits the same interner, so each ranking id may
    // own at most two allocations afterwards: the map-side original (for
    // occurrences that never spilled) and one shared replay copy.
    let cluster = Cluster::new(ClusterConfig::local(1).with_spill_budget(4));
    let freq = FrequencyTable::default();
    let rankings: Vec<Arc<OrderedRanking>> = dataset(40)
        .iter()
        .map(|r| Arc::new(OrderedRanking::by_frequency(r, &freq)))
        .collect();
    let records: Vec<(u32, TokenEntry)> = rankings
        .iter()
        .flat_map(|r| {
            r.pairs()
                .iter()
                .map(|&(item, rank)| (item, TokenEntry::plain(rank, Arc::clone(r))))
                .collect::<Vec<_>>()
        })
        .collect();
    let occurrences_per_id = K;

    let grouped = cluster
        .parallelize(records, 6)
        .group_by_key_spilling("intern-test/group-by-token", 4)
        .collect();
    assert!(
        cluster.metrics().total_spilled_runs() > 0,
        "the budget must actually force spills"
    );

    let mut allocations: HashMap<u64, Vec<*const OrderedRanking>> = HashMap::new();
    let mut total = 0usize;
    for (_, entries) in &grouped {
        for entry in entries {
            total += 1;
            let ptr = Arc::as_ptr(&entry.ranking);
            let ptrs = allocations.entry(entry.ranking.id()).or_default();
            if !ptrs.contains(&ptr) {
                ptrs.push(ptr);
            }
        }
    }
    assert_eq!(total, rankings.len() * occurrences_per_id);
    for (id, ptrs) in &allocations {
        assert!(
            ptrs.len() <= 2,
            "ranking {id} owns {} allocations across its {occurrences_per_id} \
             occurrences; replay must intern, not multiply",
            ptrs.len()
        );
    }
    // Globally the interner must have collapsed most replayed copies: far
    // fewer allocations than occurrences.
    let distinct: usize = allocations.values().map(Vec::len).sum();
    assert!(
        distinct <= rankings.len() * 2,
        "{distinct} allocations for {} rankings",
        rankings.len()
    );
}

#[test]
fn token_entries_round_trip_through_the_spill_codec() {
    use minispark::Codec;
    use topk_rankings::Relation;
    let freq = FrequencyTable::default();
    for (i, r) in dataset(12).iter().enumerate() {
        let ranking = Arc::new(OrderedRanking::by_frequency(r, &freq));
        let entry = TokenEntry {
            rank: ranking.pairs()[i % K].1,
            // Every prefix length a ranking can emit, tags of both kinds.
            prefix_len: (i % K + 1) as u16,
            singleton: i % 2 == 1,
            relation: if i % 3 == 0 {
                Relation::Right
            } else {
                Relation::Left
            },
            ranking,
        };
        let mut bytes = Vec::new();
        entry.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let back = TokenEntry::decode(&mut input).expect("an encoded entry decodes");
        assert!(input.is_empty(), "decode must consume the whole entry");
        assert_eq!(
            (back.rank, back.prefix_len, back.singleton, back.relation),
            (
                entry.rank,
                entry.prefix_len,
                entry.singleton,
                entry.relation
            )
        );
        assert_eq!(back.ranking.id(), entry.ranking.id());
        assert_eq!(back.ranking.pairs(), entry.ranking.pairs());
        assert_eq!(back.prefix(), entry.prefix());
        // A truncated encoding is refused, not misread.
        let mut cut = &bytes[..bytes.len() - 1];
        assert!(TokenEntry::decode(&mut cut).is_none());
    }
}
