//! Plain-text and CSV rendering of experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table used to print every figure/table of the
/// paper as text and to export it as CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&separator, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// One reproduced figure or table: an identifier (matching DESIGN.md's
/// per-experiment index), a human-readable title, and the data.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Experiment identifier, e.g. `"figure3-q2-temporal"`.
    pub id: String,
    /// Human-readable description of what is shown.
    pub title: String,
    /// The data table.
    pub table: TextTable,
}

impl FigureResult {
    /// Creates a figure result.
    pub fn new(id: impl Into<String>, title: impl Into<String>, table: TextTable) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            table,
        }
    }

    /// Renders the figure as a titled text block.
    pub fn render(&self) -> String {
        format!("## {} — {}\n\n{}", self.id, self.title, self.table.render())
    }

    /// Writes the figure as `<id>.csv` into `directory`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, directory: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(directory)?;
        std::fs::write(
            directory.join(format!("{}.csv", self.id)),
            self.table.to_csv(),
        )
    }
}

/// Formats a float with three decimals (the precision used in all reports).
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(["alg", "cost"]);
        table.push_row(["rotor-push", "3.14"]);
        table.push_row(["x", "10"]);
        let text = table.render();
        assert!(text.contains("alg"));
        assert!(text.contains("rotor-push"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.header().len(), 2);
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = TextTable::new(["name", "value"]);
        table.push_row(["a,b", "say \"hi\""]);
        let csv = table.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn rows_are_padded_to_header_width() {
        let mut table = TextTable::new(["a", "b", "c"]);
        table.push_row(["only-one"]);
        assert_eq!(table.rows()[0].len(), 3);
    }

    #[test]
    fn figure_result_renders_and_writes_csv() {
        let mut table = TextTable::new(["x", "y"]);
        table.push_row(["1", "2"]);
        let figure = FigureResult::new("figure-test", "A test figure", table);
        assert!(figure.render().contains("figure-test"));
        let dir = std::env::temp_dir().join("satn-report-test");
        figure.write_csv(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join("figure-test.csv")).unwrap();
        assert!(written.starts_with("x,y"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_uses_three_decimals() {
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(2.0), "2.000");
    }
}
