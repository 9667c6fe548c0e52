//! The *Joining* phase: the similarity join over cluster centroids
//! (Algorithm 1, §5.2).
//!
//! Centroids are joined with threshold `θo = θ + 2·θc` (Lemma 5.1), but
//! Lemma 5.3 relaxes this by centroid type: pairs of singleton centroids
//! only need θ, mixed pairs `θ + θc`. Accordingly, non-singleton centroids
//! emit a prefix sized for θo while singleton centroids emit a shorter
//! prefix, and each candidate pair is verified against its type's threshold.
//!
//! **Prefix-size note.** The paper sizes the singleton prefix for θ. Prefix
//! intersection for a pair within distance `D` is only guaranteed when *both*
//! prefixes are at least `k − ω(D) + 1` long, and mixed pairs must be
//! retrieved up to `D = θ + θc` — so a θ-sized singleton prefix can miss
//! mixed pairs. By default we size singleton prefixes for `θ + θc` (sound,
//! still shorter than the θo prefix, same asymptotic saving);
//! [`crate::JoinConfig::strict_paper_prefixes`] restores the literal paper
//! behaviour.

use std::sync::Arc;

use minispark::{Dataset, SkewBudget};
use topk_rankings::distance::raw_threshold;
use topk_rankings::OrderedRanking;

use crate::kernels::{Footrule, GroupThresholds};
use crate::pipeline::{prefix_join, PairHit, PrefixSource};
use crate::stats::JoinStats;
use crate::JoinConfig;

/// The three per-type raw thresholds of Lemma 5.3: `(θ_o, θ_ms, θ_ss)`.
///
/// Each composed threshold is converted from the *normalized* domain in one
/// step — `raw_threshold(k, θ + 2θc)` — never by summing per-term raw
/// floors: `⌊a⌋ + ⌊b⌋ ≤ ⌊a + b⌋`, so a sum of floors can come out one raw
/// unit **tighter** than the exact composed threshold and silently drop
/// boundary pairs (pinned by `composed_thresholds_match_exact_rationals`).
fn composed_thresholds(k: usize, config: &JoinConfig) -> (u64, u64, u64) {
    // Normalized distances live in [0, 1], so a composed threshold past 1
    // (θ near 1 plus a positive θc) accepts everything — clamp before
    // converting, `raw_threshold(k, 1.0)` is the exact maximum.
    let theta_o = raw_threshold(k, (config.theta + 2.0 * config.cluster_threshold).min(1.0));
    let theta_ms = if config.use_lemma53 {
        raw_threshold(k, (config.theta + config.cluster_threshold).min(1.0))
    } else {
        // Ablation: no per-type relaxation — every pair joins at θ + 2θc.
        theta_o
    };
    let theta_ss = if config.use_lemma53 {
        raw_threshold(k, config.theta)
    } else {
        theta_o
    };
    (theta_o, theta_ms, theta_ss)
}

/// The Footrule space of the centroid join: Lemma 5.3's per-type thresholds,
/// composed from `config.theta` / `config.cluster_threshold` in the
/// normalized domain (see [`composed_thresholds`]), and the prefix each
/// centroid type emits for them.
pub(crate) fn centroid_space(k: usize, config: &JoinConfig) -> Footrule {
    let (theta_o, theta_ms, theta_ss) = composed_thresholds(k, config);
    crate::invariants::check_centroid_thresholds(theta_ss, theta_ms, theta_o);
    let p_m = config.prefix.prefix_len(k, theta_o);
    let p_s = if !config.use_lemma53 {
        p_m
    } else if config.strict_paper_prefixes {
        config.prefix.prefix_len(k, theta_ss)
    } else {
        config.prefix.prefix_len(k, theta_ms)
    };

    // Where a type's most permissive threshold — θ + 2θc for a
    // non-singleton, θ + θc for a singleton — admits disjoint pairs, the
    // sentinel routing kicks in (see pipeline::DISJOINT_SENTINEL).
    Footrule {
        k,
        prefix_kind: config.prefix,
        prefix_lens: (p_m, p_s),
        thresholds: GroupThresholds::Mixed {
            mm: theta_o,
            ms: theta_ms,
            ss: theta_ss,
        },
        use_position_filter: config.use_position_filter,
    }
}

/// Joins the centroid set `C = C_m ∪ C_s` per Algorithm 1, returning every
/// centroid pair within its type-specific threshold (with exact distances
/// and type tags for the expansion phase): one prefix join over the two
/// type-tagged sources in `centroid_space`.
///
/// `delta = Some(δ)` splits hot groups at CL-P's δ (`SkewBudget::Fixed(δ)`);
/// `None` leaves the decision to `config.skew`.
///
/// Ranking ids must be unique across `C_m ∪ C_s` (as clustering leaves
/// them): each pair is then returned exactly once, with no deduplication.
/// Debug builds panic on an input that breaks this.
pub fn centroid_join(
    centroids_m: &Dataset<Arc<OrderedRanking>>,
    singletons: &Dataset<Arc<OrderedRanking>>,
    k: usize,
    config: &JoinConfig,
    partitions: usize,
    delta: Option<usize>,
    stats: &Arc<JoinStats>,
) -> Dataset<PairHit> {
    prefix_join(
        &PrefixSource::centroids(centroids_m, singletons),
        &centroid_space(k, config),
        partitions,
        delta.map_or(config.skew, SkewBudget::Fixed),
        stats,
        "cl/join",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::order_rankings;
    use minispark::{Cluster, ClusterConfig};
    use topk_rankings::distance::{footrule_raw, raw_threshold};
    use topk_rankings::{PrefixKind, Ranking};

    fn r(id: u64, items: &[u32]) -> Ranking {
        Ranking::new(id, items.to_vec()).unwrap()
    }

    /// `(a_id, b_id, distance, a_singleton, b_singleton)`.
    type HitRow = (u64, u64, u64, bool, bool);

    fn split_and_join(
        cm: Vec<Ranking>,
        cs: Vec<Ranking>,
        theta: f64,
        theta_c: f64,
        delta: Option<usize>,
    ) -> Vec<HitRow> {
        split_and_join_with_stats(cm, cs, theta, theta_c, delta).0
    }

    fn split_and_join_with_stats(
        cm: Vec<Ranking>,
        cs: Vec<Ranking>,
        theta: f64,
        theta_c: f64,
        delta: Option<usize>,
    ) -> (Vec<HitRow>, crate::stats::StatsSnapshot) {
        let cluster = Cluster::new(ClusterConfig::local(2));
        let config = JoinConfig::new(theta).with_cluster_threshold(theta_c);
        let all: Vec<Ranking> = cm.iter().chain(cs.iter()).cloned().collect();
        let k = all[0].k();
        let cm_ids: std::collections::HashSet<u64> =
            cm.iter().map(topk_rankings::Ranking::id).collect();
        let ordered = order_rankings(&cluster, &all, PrefixKind::Overlap, 4, "test");
        let cm_ids2 = cm_ids.clone();
        let centroids_m = ordered.filter("cm", move |r: &Arc<OrderedRanking>| {
            cm_ids2.contains(&r.id())
        });
        let singletons = ordered.filter("cs", move |r: &Arc<OrderedRanking>| {
            !cm_ids.contains(&r.id())
        });
        let stats = Arc::new(JoinStats::default());
        let hits = centroid_join(&centroids_m, &singletons, k, &config, 4, delta, &stats);
        let mut out: Vec<HitRow> = hits
            .collect()
            .into_iter()
            .map(|h| (h.a.id(), h.b.id(), h.distance, h.a_singleton, h.b_singleton))
            .collect();
        out.sort();
        (out, stats.snapshot())
    }

    #[test]
    fn thresholds_depend_on_centroid_types() {
        // k = 5 ⇒ max = 30. θ = 0.2 → raw 6, θc = 0.1 → raw 3.
        // mm: 12, ms: 9, ss: 6.
        let a = r(1, &[1, 2, 3, 4, 5]);
        let b = r(2, &[4, 1, 2, 3, 5]); // distance to a:
        assert_eq!(footrule_raw(&a, &b), 6);
        let c = r(3, &[4, 1, 2, 5, 3]); // a↔c: item4:3,1:1,2:1,3:2,5:1 = 8
        assert_eq!(footrule_raw(&a, &c), 8);

        // Both non-singleton: both pairs retrieved (6 ≤ 12, 8 ≤ 12).
        let mm = split_and_join(
            vec![a.clone(), b.clone(), c.clone()],
            vec![],
            0.2,
            0.1,
            None,
        );
        assert_eq!(mm.iter().filter(|t| t.2 <= 12).count(), mm.len());
        assert!(mm.iter().any(|t| (t.0, t.1) == (1, 3)));

        // All singleton: only d ≤ 6 survives.
        let ss = split_and_join(
            vec![],
            vec![a.clone(), b.clone(), c.clone()],
            0.2,
            0.1,
            None,
        );
        assert!(ss.iter().any(|t| (t.0, t.1) == (1, 2)));
        assert!(
            !ss.iter().any(|t| (t.0, t.1) == (1, 3)),
            "d = 8 > ss = 6: {ss:?}"
        );

        // Mixed: (1,3) with a ∈ Cm, c ∈ Cs → threshold 9 ≥ 8 → retrieved.
        let ms = split_and_join(vec![a], vec![b, c], 0.2, 0.1, None);
        let pair13 = ms
            .iter()
            .find(|t| (t.0, t.1) == (1, 3))
            .expect("mixed pair");
        assert_eq!(pair13.2, 8);
        assert_eq!((pair13.3, pair13.4), (false, true));
    }

    #[test]
    fn repartitioned_centroid_join_matches_plain() {
        let data = chunk_corpus();
        let cm: Vec<Ranking> = data[..20].to_vec();
        let cs: Vec<Ranking> = data[20..].to_vec();
        let plain = split_and_join(cm.clone(), cs.clone(), 0.3, 0.03, None);
        let split = split_and_join(cm, cs, 0.3, 0.03, Some(3));
        assert_eq!(plain, split);
        assert!(!plain.is_empty());
    }

    /// Forty k = 10 rankings sharing one hot head, rotated four ways.
    fn chunk_corpus() -> Vec<Ranking> {
        (0..40)
            .map(|i| {
                let base = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                let mut items: Vec<u32> = base.to_vec();
                items.rotate_left((i % 4) as usize);
                items[9] = 20 + i;
                r(u64::from(i), &items)
            })
            .collect()
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a record key repeats")]
    fn duplicate_centroid_ids_are_rejected() {
        // A verbatim copy (same id, same items) is a second record with the
        // same prefix, so its pairs would come out twice: the input breaks
        // `centroid_join`'s unique-id precondition, whole or chunked.
        let data = chunk_corpus();
        let mut cs: Vec<Ranking> = data[20..].to_vec();
        cs.push(data[25].clone());
        split_and_join(data[..20].to_vec(), cs, 0.3, 0.03, Some(2));
    }

    #[test]
    fn clp_chunk_pair_join_recovers_pairs_straddling_chunk_boundaries() {
        // Regression (ISSUE 5, satellite 3): with a tiny δ every hot token
        // group is cut into many chunks, so most near-pairs land in
        // *different* chunks and only the chunk-pair R-S join can recover
        // them. The pair set is pinned to brute force (per-type Lemma 5.3
        // thresholds), and the candidate/verified counters must match the
        // unchunked join exactly — each unordered pair is examined once
        // whether its group is joined whole or as chunks plus chunk pairs.
        let data = chunk_corpus();
        let cm: Vec<Ranking> = data[..20].to_vec();
        let cs: Vec<Ranking> = data[20..].to_vec();

        let (theta, theta_c) = (0.3, 0.03);
        let k = 10;
        let (theta_raw, theta_c_raw) = (raw_threshold(k, theta), raw_threshold(k, theta_c));
        let mut expected: Vec<HitRow> = Vec::new();
        for x in 0..40u64 {
            for y in (x + 1)..40 {
                let (a_s, b_s) = (x >= 20, y >= 20);
                let threshold = match (a_s, b_s) {
                    (true, true) => theta_raw,
                    (false, false) => theta_raw + 2 * theta_c_raw,
                    _ => theta_raw + theta_c_raw,
                };
                let d = footrule_raw(&data[x as usize], &data[y as usize]);
                if d <= threshold {
                    expected.push((x, y, d, a_s, b_s));
                }
            }
        }
        assert!(
            expected.len() >= 8,
            "corpus must produce a meaningful pair set, got {expected:?}"
        );

        let (plain, plain_stats) =
            split_and_join_with_stats(cm.clone(), cs.clone(), theta, theta_c, None);
        let (chunked, chunked_stats) = split_and_join_with_stats(cm, cs, theta, theta_c, Some(2));

        assert_eq!(plain, expected, "unchunked centroid join pair set");
        assert_eq!(chunked, expected, "chunked (δ = 2) centroid join pair set");

        // Pair-examination parity across the split.
        assert_eq!(chunked_stats.candidates, plain_stats.candidates);
        assert_eq!(chunked_stats.position_pruned, plain_stats.position_pruned);
        assert_eq!(chunked_stats.verified, plain_stats.verified);
        assert_eq!(chunked_stats.result_pairs, plain_stats.result_pairs);

        // The chunked run must actually have split and R-S-joined; the
        // plain run must not have.
        assert!(chunked_stats.posting_lists_split > 0);
        assert!(chunked_stats.skew_chunks > 0);
        assert!(chunked_stats.rs_joins > 0);
        assert_eq!(plain_stats.posting_lists_split, 0);
        assert_eq!(plain_stats.rs_joins, 0);
        assert_eq!(plain_stats.skew_chunks, 0);
    }

    #[test]
    fn composed_thresholds_match_exact_rationals() {
        // Regression (ISSUE 9, satellite 1): θ_o used to be composed as
        // `raw_threshold(k, θ) + 2·raw_threshold(k, θc)` — a sum of floors,
        // which `⌊a⌋ + ⌊b⌋ ≤ ⌊a + b⌋` makes up to two raw units tighter
        // than the exact composed threshold. Sweep a θ×θc×k grid of exact
        // thousandths, compare both compositions against the exact u128
        // rational, and require (a) the fixed composition is always exact
        // and (b) the grid actually contains combinations where the old
        // sum-of-floors composition was strictly tighter.
        let ks = [5usize, 10, 20, 25, 50];
        let mut old_was_tighter = 0usize;
        for &k in &ks {
            let max = u128::from(topk_rankings::max_raw_distance(k));
            for a in (25u32..=400).step_by(25) {
                for b in (5u32..=150).step_by(5) {
                    let theta = f64::from(a) / 1000.0;
                    let theta_c = f64::from(b) / 1000.0;
                    let config = JoinConfig::new(theta).with_cluster_threshold(theta_c);
                    let (theta_o, theta_ms, theta_ss) = super::composed_thresholds(k, &config);

                    let exact =
                        |num: u32| -> u64 { (u128::from(num) * max / 1000).try_into().unwrap() };
                    assert_eq!(theta_o, exact(a + 2 * b), "θ_o at k={k} θ={a}‰ θc={b}‰");
                    assert_eq!(theta_ms, exact(a + b), "θ_ms at k={k} θ={a}‰ θc={b}‰");
                    assert_eq!(theta_ss, exact(a), "θ_ss at k={k} θ={a}‰ θc={b}‰");

                    let old_theta_o = raw_threshold(k, theta) + 2 * raw_threshold(k, theta_c);
                    assert!(old_theta_o <= theta_o);
                    if old_theta_o < theta_o {
                        old_was_tighter += 1;
                    }
                }
            }
        }
        assert!(
            old_was_tighter > 0,
            "grid must exhibit the sum-of-floors off-by-one the fix removes"
        );
    }

    #[test]
    fn boundary_pair_at_exact_composed_threshold_is_kept() {
        // Concrete off-by-one: k = 5 (max raw = 30), θ = 0.25, θc = 0.15.
        // Exact θ_o = ⌊30 · 0.55⌋ = 16, but the old sum-of-floors gave
        // ⌊7.5⌋ + 2·⌊4.5⌋ = 15 — silently dropping any non-singleton
        // centroid pair at distance exactly 16. The paper's own §1.1
        // example pair (Table 2) sits at raw distance 16.
        let t1 = r(1, &[2, 5, 4, 3, 1]);
        let t2 = r(2, &[1, 4, 5, 9, 0]);
        assert_eq!(footrule_raw(&t1, &t2), 16);
        let hits = split_and_join(vec![t1, t2], vec![], 0.25, 0.15, None);
        assert_eq!(hits, vec![(1, 2, 16, false, false)]);
    }

    #[test]
    fn strict_paper_prefixes_flag_is_honoured() {
        // Smoke test: the flag changes the singleton prefix length but on
        // this small input the result set is the same.
        let cluster = Cluster::new(ClusterConfig::local(2));
        let data = vec![r(1, &[1, 2, 3, 4, 5]), r(2, &[2, 1, 3, 4, 5])];
        let mut config = JoinConfig::new(0.2).with_cluster_threshold(0.1);
        config.strict_paper_prefixes = true;
        let ordered = order_rankings(&cluster, &data, PrefixKind::Overlap, 2, "test");
        let empty = ordered.filter("none", |_| false);
        let stats = Arc::new(JoinStats::default());
        let hits = centroid_join(&empty, &ordered, 5, &config, 2, None, &stats);
        let pairs: Vec<(u64, u64)> = hits
            .collect()
            .iter()
            .map(super::super::pipeline::PairHit::ids)
            .collect();
        assert_eq!(pairs, vec![(1, 2)]);
    }
}
