//! Join configuration.

use minispark::SkewBudget;
use topk_rankings::PrefixKind;

use crate::JoinError;

/// Parameters of a similarity-join run (all thresholds normalized to
/// `[0, 1]`, as in the paper's evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinConfig {
    /// The join distance threshold θ.
    pub theta: f64,
    /// The clustering threshold θc of CL/CL-P (§5; the paper recommends
    /// values below 0.05 and uses 0.03 throughout).
    pub cluster_threshold: f64,
    /// The partitioning threshold δ of CL-P (§6): posting lists longer than
    /// this are split into sub-partitions of at most δ entries.
    pub partition_threshold: usize,
    /// Number of reduce-side partitions for wide operations; `0` uses the
    /// cluster's `default_partitions`.
    pub partitions: usize,
    /// Which prefix derivation to use: the weighted prefix (the default),
    /// or §4's count prefix (`Overlap`) or Lemma 4.1's (`Ordered`).
    /// `Weighted` and `Overlap` require — and enable — the frequency
    /// reordering; `Ordered` keeps the original rank order.
    pub prefix: PrefixKind,
    /// Whether the position filter (ref. 19 of the paper, §4) is applied during candidate
    /// verification.
    pub use_position_filter: bool,
    /// Apply the triangle-inequality bounds in the expansion phase and for
    /// cluster-internal member pairs (§5.3). Disabling verifies every
    /// expansion candidate — an ablation knob quantifying what the metric
    /// property buys.
    pub use_triangle_bounds: bool,
    /// Apply Lemma 5.3's per-centroid-type thresholds in the joining phase.
    /// Disabling joins every centroid pair at the full θ + 2θc — the
    /// ablation for the singleton optimization.
    pub use_lemma53: bool,
    /// Follow the paper's Algorithm 1 literally and emit singleton-centroid
    /// prefixes sized for θ (instead of θ + θc).
    ///
    /// The literal variant is **potentially incomplete**: a pair
    /// `(c_m, c_s)` must be retrieved up to distance θ + θc (Lemma 5.3,
    /// case 2), and prefix-filter completeness requires *both* prefixes to
    /// cover the pair's threshold — a θ-sized singleton prefix does not.
    /// The default (`false`) sizes singleton prefixes for θ + θc, which is
    /// sound and still shorter than the non-singleton θ + 2·θc prefix,
    /// preserving the lemma's intent. See DESIGN.md.
    pub strict_paper_prefixes: bool,
    /// Skew handling for the token-grouped join phases (DESIGN.md §11):
    /// `Off` (default) joins each prefix-token group as one task, `Fixed(b)`
    /// splits groups larger than `b` into ≤-b sub-partitions à la CL-P, and
    /// `Auto` derives the budget from the cluster's slot count and the exact
    /// group sizes (p95 and max) of the grouped tokens. VJ-P and the joining
    /// phase of CL-P split at `Fixed(`[`partition_threshold`](Self::partition_threshold)`)`
    /// instead; every other join phase — VJ, VJ-NL, CL's centroid join and
    /// both clustering phases — splits under `skew`.
    pub skew: SkewBudget,
}

impl JoinConfig {
    /// A configuration with the given θ and the paper's recommended defaults
    /// (θc = 0.03, position filter on), with the weighted prefix in place of
    /// the paper's count prefix: the same pairs from fewer candidates.
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            cluster_threshold: 0.03,
            partition_threshold: 2_000,
            partitions: 0,
            prefix: PrefixKind::Weighted,
            use_position_filter: true,
            use_triangle_bounds: true,
            use_lemma53: true,
            strict_paper_prefixes: false,
            skew: SkewBudget::Off,
        }
    }

    /// Sets the skew-handling policy for the token-grouped join phases.
    pub fn with_skew(mut self, skew: SkewBudget) -> Self {
        self.skew = skew;
        self
    }

    /// Enables/disables the expansion triangle bounds (ablation).
    pub fn with_triangle_bounds(mut self, enabled: bool) -> Self {
        self.use_triangle_bounds = enabled;
        self
    }

    /// Enables/disables Lemma 5.3's mixed centroid thresholds (ablation).
    pub fn with_lemma53(mut self, enabled: bool) -> Self {
        self.use_lemma53 = enabled;
        self
    }

    /// Sets the clustering threshold θc.
    pub fn with_cluster_threshold(mut self, theta_c: f64) -> Self {
        self.cluster_threshold = theta_c;
        self
    }

    /// Sets the partitioning threshold δ.
    pub fn with_partition_threshold(mut self, delta: usize) -> Self {
        self.partition_threshold = delta;
        self
    }

    /// Sets the number of reduce-side partitions.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Selects the prefix derivation.
    pub fn with_prefix(mut self, prefix: PrefixKind) -> Self {
        self.prefix = prefix;
        self
    }

    /// Enables/disables the position filter.
    pub fn with_position_filter(mut self, enabled: bool) -> Self {
        self.use_position_filter = enabled;
        self
    }

    /// Validates the configuration on its own: θ and θc in `[0, 1]`, δ ≥ 1
    /// and no `SkewBudget::Fixed(0)`.
    pub fn validate(&self) -> Result<(), JoinError> {
        validate_parameters(
            [self.theta, self.cluster_threshold],
            self.partition_threshold,
            self.skew,
        )
    }

    /// The reduce-side partition count, falling back to the cluster default.
    pub fn effective_partitions(&self, cluster_default: usize) -> usize {
        effective_partitions(self.partitions, cluster_default)
    }
}

/// The checks every join configuration shares: normalized thresholds in
/// `[0, 1]`, a partitioning threshold δ ≥ 1, a non-zero skew budget.
pub(crate) fn validate_parameters(
    thresholds: [f64; 2],
    partition_threshold: usize,
    skew: SkewBudget,
) -> Result<(), JoinError> {
    for t in thresholds {
        if !(0.0..=1.0).contains(&t) || !t.is_finite() {
            return Err(JoinError::InvalidThreshold(t));
        }
    }
    if partition_threshold == 0 {
        return Err(JoinError::InvalidPartitionThreshold);
    }
    validate_skew(skew)
}

/// A fixed skew budget of zero is an invalid δ, not a request to clamp.
pub(crate) fn validate_skew(skew: SkewBudget) -> Result<(), JoinError> {
    if skew == SkewBudget::Fixed(0) {
        return Err(JoinError::InvalidPartitionThreshold);
    }
    Ok(())
}

/// `requested` reduce-side partitions, `0` meaning the cluster default.
pub(crate) fn effective_partitions(requested: usize, cluster_default: usize) -> usize {
    if requested == 0 {
        cluster_default.max(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = JoinConfig::new(0.3);
        assert_eq!(c.theta, 0.3);
        assert_eq!(c.cluster_threshold, 0.03);
        assert!(c.use_position_filter);
        assert_eq!(c.prefix, PrefixKind::Weighted);
        assert!(c.use_triangle_bounds);
        assert!(c.use_lemma53);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let c = JoinConfig::new(0.2)
            .with_cluster_threshold(0.05)
            .with_partition_threshold(500)
            .with_partitions(32)
            .with_prefix(PrefixKind::Ordered)
            .with_position_filter(false);
        assert_eq!(c.cluster_threshold, 0.05);
        assert_eq!(c.partition_threshold, 500);
        assert_eq!(c.partitions, 32);
        assert_eq!(c.prefix, PrefixKind::Ordered);
        assert!(!c.use_position_filter);
        let c = c.with_triangle_bounds(false).with_lemma53(false);
        assert!(!c.use_triangle_bounds);
        assert!(!c.use_lemma53);
    }

    #[test]
    fn validation_rejects_bad_thresholds() {
        assert!(JoinConfig::new(-0.1).validate().is_err());
        assert!(JoinConfig::new(1.5).validate().is_err());
        assert!(JoinConfig::new(f64::NAN).validate().is_err());
        assert!(JoinConfig::new(0.3)
            .with_cluster_threshold(2.0)
            .validate()
            .is_err());
        assert!(JoinConfig::new(0.3)
            .with_partition_threshold(0)
            .validate()
            .is_err());
    }

    #[test]
    fn effective_partitions_fallback() {
        assert_eq!(JoinConfig::new(0.3).effective_partitions(64), 64);
        assert_eq!(
            JoinConfig::new(0.3)
                .with_partitions(8)
                .effective_partitions(64),
            8
        );
    }
}
