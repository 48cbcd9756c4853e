//! Minimal aligned text-table rendering for the harness output.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new(header: Vec<String>) -> TextTable {
        TextTable { header, rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn push_row(&mut self, mut row: Vec<String>) {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;

        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        // Cells are written straight into the output buffer: no per-cell
        // `String` or per-row join allocation.
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(widths.iter().copied()).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats a ratio with three decimals; a NaN marks a degraded (failed)
/// harness cell.
pub fn fmt_ratio(v: f64) -> String {
    if v.is_nan() {
        "degraded".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// Formats a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["kernel".into(), "norm".into()]);
        t.push_row(vec!["sgemm".into(), "0.3".into()]);
        t.push_row(vec!["x".into(), "12.125".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("kernel"));
        assert!(lines[2].ends_with("0.3"));
        assert_eq!(lines[2].len(), lines[3].len(), "rows align");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.rows, [["1", "", ""]]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ratio(0.3333333), "0.333");
        assert_eq!(fmt_ratio(f64::NAN), "degraded");
        assert_eq!(fmt_pct(0.725), "72.5%");
    }
}
