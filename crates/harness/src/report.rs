//! Result tables: markdown / CSV / gem5-style rendering.

use std::fmt;

/// A generic result table: what each figure/table function returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title (e.g. "Figure 8: speedup over baseline").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Render as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Look up a cell by row label (first column) and column header.
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let row = self
            .rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(row_label))?;
        row.get(col).map(String::as_str)
    }

    /// Parse a cell as f64.
    pub fn cell_f64(&self, row_label: &str, column: &str) -> Option<f64> {
        self.cell(row_label, column)?.parse().ok()
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// Format a float with 2 decimals (shared by the experiments).
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["workload", "speedup"]);
        t.push_row(vec!["cceh".into(), "2.31".into()]);
        t.push_row(vec!["echo".into(), "1.75".into()]);
        t
    }

    #[test]
    fn markdown_has_all_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| cceh | 2.31 |"));
        assert!(md.contains("| echo | 1.75 |"));
    }

    #[test]
    fn csv_round_trip() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("workload,speedup"));
    }

    #[test]
    fn cell_lookup() {
        let t = sample();
        assert_eq!(t.cell("cceh", "speedup"), Some("2.31"));
        assert_eq!(t.cell_f64("echo", "speedup"), Some(1.75));
        assert_eq!(t.cell("nope", "speedup"), None);
        assert_eq!(t.cell("cceh", "nope"), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        sample().push_row(vec!["only-one".into()]);
    }
}
