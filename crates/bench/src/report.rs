//! Plain-text tables and CSV output for the experiment harness.

use sonic::fleet::CellSummary;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple column-aligned table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a table's CSV under `target/experiments/<name>.csv`.
pub fn save_csv(name: &str, table: &Table) {
    let path = experiments_dir().join(format!("{name}.csv"));
    if std::fs::write(&path, table.to_csv()).is_ok() {
        println!("[csv] {}", path.display());
    }
}

/// Population-level results of a fleet evaluation: one row per
/// `(network, power, backend)` cell, summarizing accuracy over the test
/// inputs, completion (DNC) rate, and latency/energy/reboot
/// distributions.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// `(network label, cell summary)` rows in fleet submission order.
    pub rows: Vec<(String, CellSummary)>,
}

impl FleetReport {
    /// Renders the report as a column-aligned [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(&[
            "network",
            "power",
            "impl",
            "runs",
            "done",
            "DNC-rate",
            "accuracy",
            "p50-total(s)",
            "p95-total(s)",
            "mean-E(mJ)",
            "p95-E(mJ)",
            "mean-reboots",
            "starved-in",
            "nonterm",
            "SDC",
            "corr-det",
            "corrupted",
        ]);
        let opt = |v: Option<f64>, f: &dyn Fn(f64) -> String| match v {
            Some(x) => f(x),
            None => "-".to_string(),
        };
        for (net, s) in &self.rows {
            t.row(vec![
                net.clone(),
                s.power.clone(),
                s.backend.clone(),
                s.runs.to_string(),
                s.completed.to_string(),
                format!("{:.2}", 1.0 - s.completion_rate),
                opt(s.accuracy, &|a| format!("{a:.3}")),
                opt(s.total_secs.map(|x| x.p50), &|v| secs(v)),
                opt(s.total_secs.map(|x| x.p95), &|v| secs(v)),
                opt(s.energy_mj.map(|x| x.mean), &|e| format!("{e:.3}")),
                opt(s.energy_mj.map(|x| x.p95), &|e| format!("{e:.3}")),
                opt(s.reboots.map(|x| x.mean), &|r| format!("{r:.1}")),
                s.starved_label(),
                s.non_termination_label(),
                s.sdc.to_string(),
                s.corruption_detected.to_string(),
                s.corrupted_runs.to_string(),
            ]);
        }
        t
    }
}

/// Formats seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a ratio like `6.9x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fleet_report_renders_populations_and_dnc_cells() {
        use sonic::fleet::Stats;
        let done = CellSummary {
            backend: "SONIC".into(),
            power: "1mF".into(),
            runs: 8,
            completed: 8,
            completion_rate: 1.0,
            accuracy: Some(0.875),
            total_secs: Some(Stats {
                mean: 2.0,
                p50: 1.5,
                p95: 4.25,
            }),
            energy_mj: Some(Stats {
                mean: 0.9,
                p50: 0.8,
                p95: 1.2,
            }),
            reboots: Some(Stats {
                mean: 12.5,
                p50: 12.0,
                p95: 20.0,
            }),
            starved: Vec::new(),
            sdc: 0,
            corruption_detected: 0,
            corrupted_runs: 0,
            non_termination: 0,
            non_termination_task: None,
        };
        let dnc = CellSummary {
            backend: "Base".into(),
            power: "100uF".into(),
            runs: 8,
            completed: 0,
            completion_rate: 0.0,
            accuracy: Some(0.0),
            total_secs: None,
            energy_mj: None,
            reboots: None,
            starved: vec![("conv1".into(), 8)],
            sdc: 0,
            corruption_detected: 0,
            corrupted_runs: 0,
            non_termination: 0,
            non_termination_task: None,
        };
        let rep = FleetReport {
            rows: vec![("HAR".into(), done), ("HAR".into(), dnc)],
        };
        let s = rep.table().render();
        assert!(s.contains("DNC-rate"), "{s}");
        assert!(s.contains("0.875"), "{s}");
        assert!(s.contains("4.25"), "p95 column: {s}");
        // Nothing completed: distribution columns show a dash.
        let dnc_line = s.lines().find(|l| l.contains("Base")).unwrap();
        assert!(dnc_line.contains("1.00"), "DNC rate: {dnc_line}");
        assert!(dnc_line.contains('-'), "{dnc_line}");
        // The starvation histogram names the layer the DNCs piled up in.
        assert!(dnc_line.contains("conv1:8"), "{dnc_line}");
        assert_eq!(rep.rows[0].1.starved_label(), "-");
    }

    #[test]
    fn fleet_report_surfaces_non_termination_and_corruption() {
        let mut s = CellSummary {
            backend: "Tile-128".into(),
            power: "100uF".into(),
            runs: 8,
            completed: 5,
            completion_rate: 5.0 / 8.0,
            accuracy: Some(0.5),
            total_secs: None,
            energy_mj: None,
            reboots: None,
            starved: vec![("tile128-layer0".into(), 1)],
            sdc: 1,
            corruption_detected: 7,
            corrupted_runs: 2,
            non_termination: 2,
            non_termination_task: Some("tile128-layer0".into()),
        };
        assert_eq!(s.non_termination_label(), "2(tile128-layer0)");
        s.non_termination_task = None;
        assert_eq!(s.non_termination_label(), "2");
        let rep = FleetReport {
            rows: vec![("MNIST".into(), s)],
        };
        let out = rep.table().render();
        for col in ["nonterm", "SDC", "corr-det", "corrupted"] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
        let line = out.lines().find(|l| l.contains("Tile-128")).unwrap();
        assert!(line.contains('7') && line.contains('2'), "{line}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(3.17159), "3.17");
        assert_eq!(secs(0.01234), "0.0123");
        assert_eq!(ratio(6.93), "6.93x");
    }
}
