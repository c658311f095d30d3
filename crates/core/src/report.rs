//! Plain-text tabular reports.

use std::fmt;

/// A rectangular report: a title, column headers and string rows.
///
/// # Examples
///
/// ```
/// use edgebench::Report;
/// let mut r = Report::new("demo", ["model", "ms"]);
/// r.push_row(["resnet-18", "26.5"]);
/// let s = r.to_table_string();
/// assert!(s.contains("resnet-18"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with the given title and columns.
    pub fn new<C: Into<String>>(
        title: impl Into<String>,
        columns: impl IntoIterator<Item = C>,
    ) -> Self {
        Report {
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Column headers.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Free-form notes rendered under the table.
    #[cfg(test)]
    pub(crate) fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn push_row<C: Into<String>>(&mut self, row: impl IntoIterator<Item = C>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Appends a note line.
    pub(crate) fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Finds a cell by row key (first column) and column header.
    pub(crate) fn cell(&self, row_key: &str, column: &str) -> Option<&str> {
        let ci = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r[0] == row_key)?;
        row.get(ci).map(String::as_str)
    }

    /// Parses a cell as `f64` (see `Report::cell`).
    pub fn cell_f64(&self, row_key: &str, column: &str) -> Option<f64> {
        self.cell(row_key, column)?.parse().ok()
    }

    /// Renders the report as RFC-4180-style CSV (quoted fields, header row).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders an aligned plain-text table.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.columns, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
        ));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

/// Magnitude-scaled decimal places: whole numbers from 100 up, one decimal
/// in the tens, two below that.
fn fmt_sig(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a latency in milliseconds with report-appropriate precision.
pub(crate) fn fmt_ms(v: f64) -> String {
    fmt_sig(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("t", ["a", "bbbb"]);
        r.push_row(["xxxxxx", "1"]);
        r.push_note("hello");
        let s = r.to_table_string();
        assert!(s.contains("## t"));
        assert!(s.contains("xxxxxx"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut r = Report::new("t", ["a", "b"]);
        r.push_row(["only-one"]);
    }

    #[test]
    fn cell_lookup_works() {
        let mut r = Report::new("t", ["model", "ms"]);
        r.push_row(["resnet", "42.5"]);
        assert_eq!(r.cell("resnet", "ms"), Some("42.5"));
        assert_eq!(r.cell_f64("resnet", "ms"), Some(42.5));
        assert_eq!(r.cell("nope", "ms"), None);
        assert_eq!(r.cell("resnet", "nope"), None);
    }

    #[test]
    fn csv_quotes_awkward_fields() {
        let mut r = Report::new("t", ["a", "b"]);
        r.push_row(["plain", "has,comma"]);
        r.push_row(["with\"quote", "x"]);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"has,comma\"");
        assert_eq!(lines[2], "\"with\"\"quote\",x");
    }

    #[test]
    fn fmt_ms_scales_precision() {
        assert_eq!(fmt_ms(1234.5), "1234");
        assert_eq!(fmt_ms(56.78), "56.8");
        assert_eq!(fmt_ms(2.345), "2.35");
    }
}
