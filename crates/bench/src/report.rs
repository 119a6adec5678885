//! Report writers: aligned markdown tables on stdout plus CSV files under
//! `results/`, the raw numbers behind `docs/PAPER_SHAPES.md`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A simple column-aligned table printer.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Prints the table as aligned markdown.
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let _ = writeln!(out, "\n## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {cell:w$} |"));
            }
            s
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
    }

    /// Writes the table as CSV under `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        let mut content = String::new();
        content.push_str(&self.headers.join(","));
        content.push('\n');
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            content.push_str(&escaped.join(","));
            content.push('\n');
        }
        if let Err(e) = fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\n[csv written to {}]", path.display());
        }
    }
}

/// Results directory (workspace `results/`, overridable via SMOL_RESULTS).
fn results_dir() -> PathBuf {
    std::env::var_os("SMOL_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a throughput (im/s) with thousands separators.
pub fn fmt_tput(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.0}", v)
    } else if v >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Formats an accuracy in percent.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Formats a ratio like "5.9x".
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&["only-one".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_tput(4513.2), "4513");
        assert_eq!(fmt_tput(42.32), "42.3");
        assert_eq!(fmt_tput(3.456), "3.46");
        assert_eq!(fmt_pct(0.7434), "74.34%");
        assert_eq!(fmt_ratio(5.91), "5.9x");
    }
}
