//! Result rows and CSV reporting for the experiment harness.

use topk_simjoin::StatsSnapshot;

/// One measured data point of a figure/table series.
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure/table id, e.g. `"fig6"`.
    pub figure: &'static str,
    /// Dataset name, e.g. `"DBLPx5"`.
    pub dataset: String,
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Join threshold θ.
    pub theta: f64,
    /// Clustering threshold θc (0 for non-CL algorithms).
    pub theta_c: f64,
    /// Partitioning threshold δ (0 when unused).
    pub delta: usize,
    /// Reduce-side partitions.
    pub partitions: usize,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Ranking length.
    pub k: usize,
    /// Dataset size.
    pub n: usize,
    /// Wall-clock seconds of the run on the host.
    pub seconds: f64,
    /// Simulated wall-clock seconds on the configured cluster (per-task
    /// times measured for real, overlap simulated via LPT scheduling onto
    /// the cluster's task slots — see `minispark::StageMetrics::simulated_wall`).
    pub sim_seconds: f64,
    /// Result pairs.
    pub pairs: usize,
    /// Filter counters of the run.
    pub stats: StatsSnapshot,
}

impl Row {
    /// The CSV header matching [`Row::to_csv`].
    pub fn csv_header() -> &'static str {
        "figure,dataset,algorithm,theta,theta_c,delta,partitions,nodes,k,n,seconds,sim_seconds,pairs,candidates,position_pruned,overlap_pruned,verified,triangle_pruned,triangle_accepted,clusters,singletons,splits,rs_joins"
    }

    /// One CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{},{}",
            self.figure,
            self.dataset,
            self.algorithm,
            self.theta,
            self.theta_c,
            self.delta,
            self.partitions,
            self.nodes,
            self.k,
            self.n,
            self.seconds,
            self.sim_seconds,
            self.pairs,
            self.stats.candidates,
            self.stats.position_pruned,
            self.stats.overlap_pruned,
            self.stats.verified,
            self.stats.triangle_pruned,
            self.stats.triangle_accepted,
            self.stats.clusters,
            self.stats.singletons,
            self.stats.posting_lists_split,
            self.stats.rs_joins,
        )
    }
}

/// Prints rows as CSV (header + lines) to stdout.
pub fn print_csv(rows: &[Row]) {
    println!("{}", Row::csv_header());
    for row in rows {
        println!("{}", row.to_csv());
    }
}

/// Writes rows as a CSV file.
pub fn write_csv(path: &std::path::Path, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", Row::csv_header())?;
    for row in rows {
        writeln!(out, "{}", row.to_csv())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row {
            figure: "fig6",
            dataset: "DBLP".into(),
            algorithm: "CL-P",
            theta: 0.3,
            theta_c: 0.03,
            delta: 200,
            partitions: 16,
            nodes: 1,
            k: 10,
            n: 4000,
            seconds: 1.25,
            sim_seconds: 0.5,
            pairs: 42,
            stats: StatsSnapshot::default(),
        }
    }

    #[test]
    fn csv_line_has_header_arity() {
        let row = sample_row();
        let header_fields = Row::csv_header().split(',').count();
        let line_fields = row.to_csv().split(',').count();
        assert_eq!(header_fields, line_fields);
        assert!(row.to_csv().starts_with("fig6,DBLP,CL-P,0.3,"));
    }

    #[test]
    fn write_csv_round_trips() {
        let path = std::env::temp_dir().join(format!("topk-bench-test-{}.csv", std::process::id()));
        write_csv(&path, &[sample_row(), sample_row()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
