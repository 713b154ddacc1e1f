//! Minimal CSV emission for experiment outputs.
//!
//! The paper's artifact emits CSV data plus post-processing scripts; our
//! experiment harness does the same. This module is intentionally tiny —
//! fixed-schema, write-only CSV with RFC-4180 quoting — to avoid pulling a
//! full CSV dependency for what the harness needs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A write-only CSV table with a fixed column schema.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::csv::CsvTable;
///
/// let mut t = CsvTable::new(["d", "cycles"]);
/// t.row(["2", "118"]);
/// t.row_values([4.0, 231.5]);
/// assert!(t.to_csv_string().starts_with("d,cycles\n2,118\n"));
/// ```
#[derive(Debug, Clone)]
pub struct CsvTable {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given header columns.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(columns: I) -> Self {
        CsvTable {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The header columns.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Appends a row of string cells.
    ///
    /// # Panics
    /// Panics if the cell count differs from the column count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Appends a row of numeric cells, formatted with up to 6 significant
    /// decimal places (trailing zeros trimmed).
    pub fn row_values<I: IntoIterator<Item = f64>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(format_value).collect();
        self.row(cells);
    }

    /// Renders the table as a CSV string (RFC-4180 quoting).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, &self.columns);
        for row in &self.rows {
            write_record(&mut out, row);
        }
        out
    }

    /// Writes the table to `path`, creating parent directories as needed.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv_string())
    }
}

fn write_record(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n']) {
            let escaped = cell.replace('"', "\"\"");
            let _ = write!(out, "\"{escaped}\"");
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Formats a float for CSV: integers without decimals, otherwise 6
/// significant decimals with trailing zeros trimmed.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0');
        s.trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_csv_string(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn quotes_special_cells() {
        let mut t = CsvTable::new(["x"]);
        t.row(["hello, world"]);
        t.row(["say \"hi\""]);
        let s = t.to_csv_string();
        assert!(s.contains("\"hello, world\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(3.5), "3.5");
        assert_eq!(format_value(0.123456789), "0.123457");
        assert_eq!(format_value(-2.0), "-2");
    }

    #[test]
    fn write_to_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("blitzcoin_csv_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        let mut t = CsvTable::new(["v"]);
        t.row_values([1.25]);
        t.write_to(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "v\n1.25\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
