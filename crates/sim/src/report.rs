//! Run reports and the text-table helpers shared by the `figures` and
//! `bench` binaries and the examples.

use ppf_types::SimStats;

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Experiment label ("no-filter", "PA", "PC@8KB", ...).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Stream seed.
    pub seed: u64,
    /// All counters.
    pub stats: SimStats,
}

ppf_types::json_struct!(SimReport {
    label,
    workload,
    seed,
    stats,
});

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// A human-readable multi-line summary of the run (the block the
    /// examples print).
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} / {} — {} instructions in {} cycles (IPC {:.3})",
            self.label,
            self.workload,
            s.instructions,
            s.cycles,
            s.ipc()
        );
        let _ = writeln!(
            out,
            "  L1: {:.2}% miss ({} accesses), L2: {:.2}% miss",
            100.0 * s.l1.miss_rate(),
            s.l1.demand_accesses,
            100.0 * s.l2.miss_rate()
        );
        let _ = writeln!(
            out,
            "  prefetches: {} proposed, {} filtered, {} issued -> {} good / {} bad",
            s.prefetches_proposed.total(),
            s.prefetches_filtered.total(),
            s.prefetches_issued.total(),
            s.good_total(),
            s.bad_total()
        );
        let _ = writeln!(
            out,
            "  contention: {} demand port retries, {} bus-busy cycles, {} mispredicts",
            s.demand_port_retries, s.bus_busy_cycles, s.branch_mispredicts
        );
        // Present only when the run classified misses (DiagnosticsConfig).
        if s.l1.miss_class.total() > 0 || s.l2.miss_class.total() > 0 {
            let l1 = &s.l1.miss_class;
            let l2 = &s.l2.miss_class;
            let _ = writeln!(
                out,
                "  miss classes (compulsory/capacity/conflict): L1 {}/{}/{}, L2 {}/{}/{}",
                l1.compulsory, l1.capacity, l1.conflict, l2.compulsory, l2.capacity, l2.conflict
            );
        }
        out
    }

    /// The prefetch funnel as a rendered text block: one line per stage in
    /// flow order, for the diagnostics the `figures calibrate` subcommand
    /// and the examples print.
    pub fn funnel_block(&self) -> String {
        let mut out = String::new();
        for (stage, count) in self.stats.funnel_stages() {
            let _ = writeln!(out, "  {stage:<18} {count}");
        }
        out
    }
}

use std::fmt::Write as _;

/// Geometric mean of positive values (the usual summary for IPC ratios).
/// Returns 0 for an empty slice; ignores non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A simple aligned text table (the paper's figures are bar charts; the
/// harness prints the same data as rows).
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Left-align the first column, right-align the rest.
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a float with three decimals.
pub fn f3(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Non-positive entries are ignored rather than poisoning the mean.
        assert!((geomean(&[0.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["bench", "ipc"]);
        t.row(vec!["mcf", "0.512"]);
        t.row(vec!["wave5", "1.023"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[2].starts_with("mcf"));
        // Right-aligned numeric column: both rows end at same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let mut stats = SimStats {
            instructions: 1000,
            cycles: 500,
            ..Default::default()
        };
        stats.l1.demand_accesses = 400;
        stats.l1.demand_misses = 40;
        let r = SimReport {
            label: "PA".into(),
            workload: "mcf".into(),
            seed: 1,
            stats,
        };
        let s = r.summary();
        assert!(s.contains("PA / mcf"));
        assert!(s.contains("IPC 2.000"));
        assert!(s.contains("10.00% miss"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0821), "8.2%");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(f64::INFINITY), "inf");
    }
}
