//! Report writing: every experiment produces a markdown report (and a CSV
//! per table) under `reports/`, mirroring one table or figure of the paper.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One table of results (a figure panel or a paper table).
#[derive(Clone, Debug)]
pub struct Table {
    /// Panel title, e.g. "Figure 9a: tau = 5 s".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifies cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "ragged row");
        self.rows.push(cells.to_vec());
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {}\n", self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }
}

/// A full experiment report: id (e.g. "fig09"), description, notes on the
/// workload, and one table per panel.
#[derive(Clone, Debug)]
pub struct Report {
    /// Short id; also the output file stem.
    pub id: String,
    /// What the experiment reproduces.
    pub title: String,
    /// Free-form notes (workload parameters, paper-expectation reminders).
    pub notes: Vec<String>,
    /// Result tables.
    pub tables: Vec<Table>,
}

impl Report {
    /// Markdown for the whole report.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# {} — {}\n", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(s, "- {n}");
        }
        if !self.notes.is_empty() {
            let _ = writeln!(s);
        }
        for t in &self.tables {
            s.push_str(&t.to_markdown());
            s.push('\n');
        }
        s
    }

    /// The files this report consists of, as `(name, contents)`:
    /// `<id>.md`, then `<id>_<i>.csv` for table `i`.
    pub fn files(&self) -> Vec<(String, String)> {
        let mut out = vec![(format!("{}.md", self.id), self.to_markdown())];
        for (i, t) in self.tables.iter().enumerate() {
            out.push((format!("{}_{}.csv", self.id, i), t.to_csv()));
        }
        out
    }

    /// Writes [`files`](Self::files) under `dir` and returns the markdown
    /// path. Also prints the markdown to stdout.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        for (name, contents) in self.files() {
            fs::write(dir.join(name), contents)?;
        }
        let md_path = dir.join(format!("{}.md", self.id));
        println!("{}", self.to_markdown());
        println!("[report written to {}]", md_path.display());
        Ok(md_path)
    }
}

/// Formats a float with 3 decimals (report cells).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal (report cells).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("Panel", &["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Panel"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "x,y\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn report_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("mqd_bench_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("P", &["c"]);
        t.row(&["v".into()]);
        let r = Report {
            id: "figXX".into(),
            title: "Smoke".into(),
            notes: vec!["a note".into()],
            tables: vec![t],
        };
        let p = r.write(&dir).unwrap();
        let text = std::fs::read_to_string(p).unwrap();
        assert!(text.contains("figXX"));
        assert!(dir.join("figXX_0.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f1(12.06), "12.1");
    }
}
