//! Result rendering: aligned text tables for the terminal and JSON series
//! for plotting / EXPERIMENTS.md bookkeeping.

use serde::Serialize;
use std::path::PathBuf;

/// Directory JSON results are written to (under `target/`).
pub fn results_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("kgfd-results")
}

/// Serializes `value` to `target/kgfd-results/<name>.json`. Failures are
/// reported but non-fatal — the text table is the primary output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        kgfd_obs::warn(format!("cannot create {}: {e}", dir.display()));
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                kgfd_obs::warn(format!("cannot write {}: {e}", path.display()));
            }
        }
        Err(e) => kgfd_obs::warn(format!("cannot serialize {name}: {e}")),
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; cells beyond the header count are kept as-is.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["long-name-here", "1"]);
        t.row(["x", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("long-name-here"));
        // Columns align: "value" column starts at the same offset everywhere.
        let offset = lines[0].find("value").unwrap();
        assert_eq!(&lines[3][offset..offset + 5], "12345");
    }

    #[test]
    fn json_write_creates_file() {
        write_json("test-output", &vec![1, 2, 3]);
        let path = results_dir().join("test-output.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains('1'));
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = TextTable::new(["a"]);
        assert!(t.is_empty());
        assert!(t.render().starts_with('a'));
    }
}
