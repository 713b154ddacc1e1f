//! Reading the experiment harness's CSV files back for plotting.
//!
//! The harness writes simple numeric CSVs (no embedded commas except in
//! quoted string cells, which plotting treats as labels), so a small
//! purpose-built reader suffices.

use std::fmt;
use std::io;
use std::path::Path;

/// A CSV that does not have the shape its reader expects: no header, a
/// row wider or narrower than the header, or a missing column. The
/// message names the file when the table was loaded from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError(String);

impl CsvError {
    fn new(source: &str, msg: String) -> Self {
        if source.is_empty() {
            CsvError(msg)
        } else {
            CsvError(format!("{source}: {msg}"))
        }
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CsvError {}

impl From<CsvError> for io::Error {
    fn from(e: CsvError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A loaded CSV: header plus rows of string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows (cells as written).
    pub rows: Vec<Vec<String>>,
    /// The file the table was loaded from (empty for parsed text), for
    /// error messages.
    source: String,
}

impl Table {
    /// Parses CSV text.
    ///
    /// # Errors
    /// Returns a [`CsvError`] for a document without a header line or a
    /// row whose width differs from the header's.
    pub fn parse(text: &str) -> Result<Self, CsvError> {
        Table::parse_from(text, String::new())
    }

    fn parse_from(text: &str, source: String) -> Result<Self, CsvError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let Some((_, header)) = lines.next() else {
            return Err(CsvError::new(&source, "no header line".to_string()));
        };
        let columns = split_row(header);
        let mut rows = Vec::new();
        for (i, line) in lines {
            let cells = split_row(line);
            if cells.len() != columns.len() {
                return Err(CsvError::new(
                    &source,
                    format!(
                        "line {} has {} cells under a {}-column header",
                        i + 1,
                        cells.len(),
                        columns.len()
                    ),
                ));
            }
            rows.push(cells);
        }
        Ok(Table {
            columns,
            rows,
            source,
        })
    }

    /// Loads and parses a CSV file.
    ///
    /// # Errors
    /// Returns the I/O error (of the same kind, so a missing file reads
    /// as `NotFound`) when the file cannot be read, and an `InvalidData`
    /// error carrying the [`CsvError`] when it does not parse. Both name
    /// the file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Ok(Table::parse_from(&text, path.display().to_string())?)
    }

    /// Index of a named column.
    ///
    /// # Errors
    /// Returns a [`CsvError`] if the column does not exist.
    pub fn col(&self, name: &str) -> Result<usize, CsvError> {
        self.columns.iter().position(|c| c == name).ok_or_else(|| {
            CsvError::new(
                &self.source,
                format!("no column '{name}' in {:?}", self.columns),
            )
        })
    }

    /// A column's values parsed as f64 (non-numeric cells become NaN).
    ///
    /// # Errors
    /// Returns a [`CsvError`] if the column does not exist.
    pub fn numbers(&self, name: &str) -> Result<Vec<f64>, CsvError> {
        let i = self.col(name)?;
        Ok(self
            .rows
            .iter()
            .map(|r| r[i].parse::<f64>().unwrap_or(f64::NAN))
            .collect())
    }

    /// `(x, y)` pairs from two named columns, skipping non-numeric rows.
    ///
    /// # Errors
    /// Returns a [`CsvError`] if either column does not exist.
    pub fn xy(&self, x: &str, y: &str) -> Result<Vec<(f64, f64)>, CsvError> {
        let xs = self.numbers(x)?;
        let ys = self.numbers(y)?;
        Ok(xs
            .into_iter()
            .zip(ys)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .collect())
    }

    /// `(x, y)` pairs from rows where `filter_col == filter_val`.
    ///
    /// # Errors
    /// Returns a [`CsvError`] if any of the three columns does not exist.
    pub fn xy_where(
        &self,
        x: &str,
        y: &str,
        filter_col: &str,
        filter_val: &str,
    ) -> Result<Vec<(f64, f64)>, CsvError> {
        let (xi, yi, fi) = (self.col(x)?, self.col(y)?, self.col(filter_col)?);
        Ok(self
            .rows
            .iter()
            .filter(|r| r[fi] == filter_val)
            .filter_map(|r| {
                let a = r[xi].parse::<f64>().ok()?;
                let b = r[yi].parse::<f64>().ok()?;
                Some((a, b))
            })
            .collect())
    }

    /// Distinct values of a column, in first-appearance order.
    ///
    /// # Errors
    /// Returns a [`CsvError`] if the column does not exist.
    pub fn distinct(&self, name: &str) -> Result<Vec<String>, CsvError> {
        let i = self.col(name)?;
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r[i]) {
                seen.push(r[i].clone());
            }
        }
        Ok(seen)
    }
}

fn split_row(line: &str) -> Vec<String> {
    // handles the harness's quoting (quotes only around cells that contain
    // commas); good enough for reading back our own output
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                cells.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    cells.push(cur);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "d,cycles,label\n2,100,small\n4,250,\"big, really\"\n";

    #[test]
    fn parse_and_access() {
        let t = Table::parse(SAMPLE).unwrap();
        assert_eq!(t.columns, ["d", "cycles", "label"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.numbers("d").unwrap(), vec![2.0, 4.0]);
        assert_eq!(
            t.xy("d", "cycles").unwrap(),
            vec![(2.0, 100.0), (4.0, 250.0)]
        );
        assert_eq!(t.rows[1][2], "big, really");
    }

    #[test]
    fn filtered_xy_and_distinct() {
        let t = Table::parse("x,y,who\n1,10,a\n2,20,b\n3,30,a\n").unwrap();
        assert_eq!(
            t.xy_where("x", "y", "who", "a").unwrap(),
            vec![(1.0, 10.0), (3.0, 30.0)]
        );
        assert_eq!(t.distinct("who").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn non_numeric_cells_skip_in_xy() {
        let t = Table::parse("x,y\n1,2\nfoo,3\n4,5\n").unwrap();
        assert_eq!(t.xy("x", "y").unwrap(), vec![(1.0, 2.0), (4.0, 5.0)]);
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let e = Table::parse("a,b\n1\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2 has 1 cells under a 2-column header");
        assert!(Table::parse("a,b\n1,2,3\n").is_err());
        assert_eq!(
            Table::parse("\n").unwrap_err().to_string(),
            "no header line"
        );
    }

    #[test]
    fn missing_column_is_an_error() {
        let t = Table::parse("a\n1\n").unwrap();
        assert_eq!(
            t.col("b").unwrap_err().to_string(),
            "no column 'b' in [\"a\"]"
        );
        assert!(t.xy("a", "b").is_err());
        assert!(t.xy_where("a", "a", "b", "1").is_err());
        assert!(t.distinct("b").is_err());
    }

    #[test]
    fn load_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("blitzcoin_viz_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "a,b\n1,2,3\n").unwrap();
        let e = Table::load(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad.csv: line 2"), "{e}");
        std::fs::write(&path, "a,b\n1,2\n").unwrap();
        let e = Table::load(&path).unwrap().col("c").unwrap_err();
        assert!(e.to_string().contains("bad.csv: no column 'c'"), "{e}");
        let e = Table::load(dir.join("absent.csv")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(e.to_string().contains("absent.csv"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
