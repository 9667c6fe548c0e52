//! Smoke tests for the figure runners: every runner must produce a complete,
//! internally consistent row set at tiny scale. (The full sweeps are the
//! `experiments` binary's job; these tests pin the harness plumbing.)

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use topk_bench::figures;

/// The runners read TOPK_SCALE from the environment; serialize the tests so
/// they don't race on it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn at_tiny_scale<T>(f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("TOPK_SCALE", "0.02");
    let out = f();
    std::env::remove_var("TOPK_SCALE");
    out
}

#[test]
fn fig6_produces_the_full_grid() {
    let rows = at_tiny_scale(figures::fig6);
    // 5 datasets × 4 thresholds × 4 algorithms.
    assert_eq!(rows.len(), 5 * 4 * 4);
    // Within one (dataset, θ) cell every algorithm reports the same pairs.
    for chunk in rows.chunks(4) {
        let first = chunk[0].pairs;
        for row in chunk {
            assert_eq!(
                row.pairs, first,
                "{} disagrees in {}",
                row.algorithm, row.dataset
            );
            assert!(row.seconds > 0.0);
        }
    }
}

#[test]
fn fig7_scales_nodes() {
    let rows = at_tiny_scale(figures::fig7);
    assert_eq!(rows.len(), 2 * 2 * 4);
    assert!(rows.iter().all(|r| r.algorithm == "CL-P"));
    let nodes: std::collections::HashSet<usize> = rows.iter().map(|r| r.nodes).collect();
    assert_eq!(nodes, [4, 8].into_iter().collect());
}

#[test]
fn fig8_result_grows_linearly_with_the_increase() {
    let rows = at_tiny_scale(figures::fig8);
    assert_eq!(rows.len(), 3 * 4);
    let base: Vec<_> = rows.iter().filter(|r| r.dataset == "DBLP").collect();
    let x5: Vec<_> = rows.iter().filter(|r| r.dataset == "DBLPx5").collect();
    for (b, x) in base.iter().zip(&x5) {
        assert!(
            x.pairs >= 5 * b.pairs,
            "×5 result {} not ≥ 5 × base {}",
            x.pairs,
            b.pairs
        );
    }
}

#[test]
fn fig9_to_fig13_produce_rows() {
    let (f9, f10, f11, f12, f13, abl) = at_tiny_scale(|| {
        (
            figures::fig9(),
            figures::fig10(),
            figures::fig11(),
            figures::fig12(),
            figures::fig13(),
            figures::ablations(),
        )
    });
    assert_eq!(f9.len(), 3 * 4 * 5);
    assert_eq!(f10.len(), 3 * 2 * 6);
    assert_eq!(f11.len(), 4 * 4);
    assert_eq!(f12.len(), 2 * 3 * 3);
    assert_eq!(f13.len(), 5);
    // Nine rows at each of two θ, then two k = 25 rows (count and weighted
    // prefix).
    assert_eq!(abl.len(), 2 * 9 + 2);
    // Every ablation row at one θ (or at k = 25) reports the identical pair
    // count.
    for chunk in abl[..18].chunks_exact(9).chain([&abl[18..]]) {
        assert!(chunk.iter().all(|r| r.pairs == chunk[0].pairs));
    }
}

#[test]
fn phase_breakdown_sums_to_something() {
    let phases = at_tiny_scale(|| figures::phase_breakdown(0.2));
    assert!(phases.iter().any(|(name, _)| name.contains("cl/join")));
    assert!(phases.iter().map(|(_, s)| s).sum::<f64>() > 0.0);
}
