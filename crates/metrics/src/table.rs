//! Plain-text tables for the `scenarios` CLI and the examples.
//!
//! Every figure/table regenerator prints its results through this module so
//! EXPERIMENTS.md and the bench output share one, easily-diffable format.

use serde::{Deserialize, Serialize};

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Render the table as aligned text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("# {}\n", self.title));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with 2 decimal places (convenience for table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a fraction as a percentage with 3 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["protocol", "mean (ms)", "stddev"]);
        t.add_row(vec!["mptcp".into(), "126".into(), "425".into()]);
        t.add_row(vec!["mmptcp".into(), "116".into(), "101".into()]);
        let s = t.render();
        assert!(s.contains("# Demo"));
        assert!(s.contains("protocol"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Column starts align between header and rows.
        let header_pos = lines[1].find("mean").unwrap();
        let row_pos = lines[3].find("126").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.01234), "1.234%");
    }
}
