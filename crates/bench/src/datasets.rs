//! Benchmark workloads: scaled synthetic stand-ins for the paper's DBLP and
//! ORKU corpora (§7 "Datasets"), including the ×N increased variants.

use topk_datagen::{increase_dataset, CorpusProfile};
use topk_rankings::Ranking;

/// Base record counts at `TOPK_SCALE = 1`. The paper's corpora hold 1.2M
/// (DBLP) and 2M (ORKU) top-10 rankings; the defaults here are scaled down
/// ~300× so a full figure sweep runs on one machine in minutes. Raise
/// `TOPK_SCALE` to approach the paper's sizes.
pub const DBLP_BASE: usize = 4_000;
/// Base ORKU record count at scale 1 (ORKU is the larger corpus, §7).
pub const ORKU_BASE: usize = 6_000;
/// Base record count for the k = 25 ORKU extract (the paper extracts 1.5M
/// of the 2M records for k = 25).
pub const ORKU_K25_BASE: usize = 4_000;

/// The scale factor from the `TOPK_SCALE` environment variable.
pub fn scale() -> f64 {
    std::env::var("TOPK_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    reason = "benchmark sizes are far below 2^53 — exact in f64, and the round is ≥ 0"
)]
fn scaled(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(50)
}

/// A named benchmark dataset.
#[derive(Clone)]
pub struct Workload {
    /// Display name used in figure rows (e.g. `"DBLPx5"`).
    pub name: String,
    /// The rankings.
    pub data: Vec<Ranking>,
}

impl Workload {
    /// Ranking length of the workload.
    pub fn k(&self) -> usize {
        self.data.first().map_or(0, topk_rankings::Ranking::k)
    }
}

/// The DBLP-like base corpus (top-10).
pub fn dblp() -> Workload {
    Workload {
        name: "DBLP".into(),
        data: CorpusProfile::dblp_like(scaled(DBLP_BASE), 10).generate(),
    }
}

/// DBLP increased ×`times` with the paper's method.
pub fn dblp_x(times: usize) -> Workload {
    let base = dblp();
    Workload {
        name: format!("DBLPx{times}"),
        data: increase_dataset(&base.data, times, 0xD0 + times as u64),
    }
}

/// The ORKU-like base corpus (top-10).
pub fn orku() -> Workload {
    Workload {
        name: "ORKU".into(),
        data: CorpusProfile::orku_like(scaled(ORKU_BASE), 10).generate(),
    }
}

/// ORKU increased ×`times`.
pub fn orku_x(times: usize) -> Workload {
    let base = orku();
    Workload {
        name: format!("ORKUx{times}"),
        data: increase_dataset(&base.data, times, 0x04 + times as u64),
    }
}

/// The k = 25 ORKU extract of §7 "Increasing the size of the rankings".
pub fn orku_k25() -> Workload {
    Workload {
        name: "ORKU-k25".into(),
        data: CorpusProfile::orku_like(scaled(ORKU_K25_BASE), 25).generate(),
    }
}

/// A δ default proportional to the workload. The paper chooses δ per
/// dataset at roughly `n/4000 … n/400` (e.g. 500–5000 for the 2M-record
/// ORKU, §7.1); scaled to our corpus sizes this lands at about `n/150`,
/// small enough that the hottest posting lists actually split (Figure 10
/// shows the optimum is shallow, so the exact value matters little).
pub fn default_delta(workload: &Workload) -> usize {
    (workload.data.len() / 150).max(25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shape() {
        let d = dblp();
        assert_eq!(d.k(), 10);
        assert!(d.data.len() >= 50);
        let o25 = orku_k25();
        assert_eq!(o25.k(), 25);
    }

    #[test]
    fn increase_multiplies_size() {
        let d = dblp();
        let d5 = dblp_x(5);
        assert_eq!(d5.data.len(), 5 * d.data.len());
        assert_eq!(d5.name, "DBLPx5");
    }

    #[test]
    fn default_delta_scales_with_size() {
        let d = dblp();
        assert!(default_delta(&d) >= 25);
        assert_eq!(default_delta(&d), (d.data.len() / 150).max(25));
    }
}
