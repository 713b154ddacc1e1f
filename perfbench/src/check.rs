//! Output check: every CSV a run writes must be byte-identical to the
//! reference. At seed 2024 the reference is the committed `results/`;
//! at any other seed it is an earlier pass of the same process.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed behind the committed `results/`.
pub const COMMITTED_SEED: u64 = 2024;

/// Where a run's CSVs are compared.
#[derive(Debug, Clone)]
pub enum Reference {
    /// A directory of CSVs, matched by file name.
    Dir(PathBuf),
    /// CSV bytes captured from an earlier pass, by file name.
    Captured(BTreeMap<String, Vec<u8>>),
}

impl Reference {
    /// Captures the CSVs at `outputs` as the reference for later passes.
    pub fn capture(outputs: &[PathBuf]) -> Reference {
        Reference::Captured(
            outputs
                .iter()
                .map(|p| {
                    let bytes = std::fs::read(p).unwrap_or_default();
                    (file_name(p), bytes)
                })
                .collect(),
        )
    }

    /// Compares the CSV at `path` with the reference of the same name.
    pub fn check(&self, path: &Path) -> Result<(), String> {
        let name = file_name(path);
        let actual = std::fs::read(path).map_err(|e| format!("{name}: unreadable ({e})"))?;
        let expected = match self {
            Reference::Dir(dir) => std::fs::read(dir.join(&name)).ok(),
            Reference::Captured(map) => map.get(&name).cloned(),
        };
        match expected {
            None => Err(format!("{name}: no reference CSV")),
            Some(e) if e == actual => Ok(()),
            Some(e) => Err(format!(
                "{name}: differs from the reference{}",
                first_diff(&e, &actual)
            )),
        }
    }
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// " (line N)" for the first line where two CSVs disagree.
fn first_diff(expected: &[u8], actual: &[u8]) -> String {
    let line = expected
        .split(|&b| b == b'\n')
        .zip(actual.split(|&b| b == b'\n'))
        .position(|(e, a)| e != a);
    match line {
        Some(i) => format!(" (line {})", i + 1),
        None => " (length)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altered_bytes_fail_and_identical_bytes_pass() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ref")).unwrap();
        std::fs::write(dir.join("ref/a.csv"), "x,y\n1,2\n").unwrap();
        std::fs::write(dir.join("a.csv"), "x,y\n1,2\n").unwrap();
        let by_dir = Reference::Dir(dir.join("ref"));
        assert_eq!(by_dir.check(&dir.join("a.csv")), Ok(()));
        let captured = Reference::capture(&[dir.join("a.csv")]);
        assert_eq!(captured.check(&dir.join("a.csv")), Ok(()));

        std::fs::write(dir.join("a.csv"), "x,y\n1,3\n").unwrap();
        let err = by_dir.check(&dir.join("a.csv")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(captured.check(&dir.join("a.csv")).is_err());

        std::fs::write(dir.join("b.csv"), "x\n").unwrap();
        assert!(by_dir
            .check(&dir.join("b.csv"))
            .unwrap_err()
            .contains("no reference"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
