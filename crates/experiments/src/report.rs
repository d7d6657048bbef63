//! Table formatting shared by the examples and benches.

use std::fmt;

/// A simple rectangular table with a header row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.  Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as GitHub-flavoured markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (title omitted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("{}\n", self.headers.join(","));
        for row in &self.rows {
            out.push_str(&format!("{}\n", row.join(",")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fixed-width plain text for terminals.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        writeln!(f, "{}", self.title)?;
        let fmt_row = |row: &[String]| {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a normalized value with two decimals.
#[must_use]
pub fn norm(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["circuit", "pdp"]);
        t.push_row(vec!["s27".into(), "0.55".into()]);
        t.push_row(vec!["s298".into()]);
        t
    }

    #[test]
    fn rows_are_padded_to_the_header_width() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "Demo");
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(2).unwrap().ends_with(','));
    }

    #[test]
    fn markdown_has_a_separator_row() {
        let md = table().to_markdown();
        assert!(md.contains("| circuit | pdp |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| s27 | 0.55 |"));
    }

    #[test]
    fn display_is_aligned_plain_text() {
        let text = table().to_string();
        assert!(text.contains("circuit"));
        assert!(text.contains("s27"));
        assert!(text.contains("---"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(norm(0.5), "0.50");
    }
}
