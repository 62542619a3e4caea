//! Plain-text experiment tables.
//!
//! Every experiment harness produces a [`Table`]; `repro` prints them in the
//! paper's row/column layout and writes each as JSON.

use mask_common::json;
use std::fmt;

/// One numeric cell with `decimals` decimals, or `-` for `None` (a rate or
/// average over nothing), which [`Table::value`] does not parse.
pub fn num(v: impl Into<Option<f64>>, decimals: usize) -> String {
    v.into()
        .map_or_else(|| "-".to_owned(), |v| format!("{v:.decimals$}"))
}

/// A labelled table of numeric or textual cells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Table title (e.g. `"Figure 11: multiprogrammed performance"`).
    pub title: String,
    /// Column headers; the first column holds row labels.
    pub headers: Vec<String>,
    /// Rows: label plus one cell per remaining header.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len() + 1,
            self.headers.len(),
            "cell count must match headers"
        );
        self.rows.push((label.into(), cells));
        self
    }

    /// Appends a row of `f64` (or `Option<f64>`) cells formatted with 3
    /// decimals; see [`num`].
    pub fn row_f64<V: Into<Option<f64>> + Copy>(
        &mut self,
        label: impl Into<String>,
        cells: &[V],
    ) -> &mut Self {
        self.row(label, cells.iter().map(|&v| num(v, 3)).collect())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a machine-readable JSON object: the title plus one object
    /// per row keyed by the row label, with cells keyed by column header.
    /// Cells that are JSON numbers (RFC 8259 grammar) are emitted bare,
    /// everything else as strings.
    pub fn to_json(&self) -> String {
        fn cell_json(s: &str) -> String {
            if json::is_number(s) {
                s.to_string()
            } else {
                format!("\"{}\"", json::escape(s))
            }
        }
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"title\": \"{}\",\n",
            json::escape(&self.title)
        ));
        out.push_str("  \"rows\": {\n");
        for (r, (label, cells)) in self.rows.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{ ", json::escape(label)));
            for (i, (header, cell)) in self.headers[1..].iter().zip(cells).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\"{}\": {}",
                    json::escape(header),
                    cell_json(cell)
                ));
            }
            out.push_str(if r + 1 == self.rows.len() {
                " }\n"
            } else {
                " },\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Looks up a cell by row label and column header.
    pub fn cell(&self, row: &str, col: &str) -> Option<&str> {
        let col_idx = self.headers.iter().position(|h| h == col)?;
        if col_idx == 0 {
            return None;
        }
        let (_, cells) = self.rows.iter().find(|(label, _)| label == row)?;
        cells.get(col_idx - 1).map(String::as_str)
    }

    /// Parses a cell as `f64`.
    pub fn value(&self, row: &str, col: &str) -> Option<f64> {
        self.cell(row, col)?.parse().ok()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[&str]| -> fmt::Result {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i == 0 {
                    write!(f, "{c:<w$}")?;
                } else {
                    write!(f, "  {c:>w$}")?;
                }
            }
            writeln!(f)
        };
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        write_row(f, &headers)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        )?;
        for (label, cells) in &self.rows {
            let mut row: Vec<&str> = vec![label];
            row.extend(cells.iter().map(String::as_str));
            write_row(f, &row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Sample", &["workload", "a", "b"]);
        t.row_f64("W1", &[1.0, 2.5]);
        t.row("W2", vec!["x".into(), "y".into()]);
        t
    }

    #[test]
    fn missing_values_print_a_dash_that_does_not_parse() {
        let mut t = Table::new("Sample", &["workload", "a", "b"]);
        t.row_f64("W1", &[Some(0.25), None]);
        assert_eq!(t.cell("W1", "a"), Some("0.250"));
        assert_eq!(t.cell("W1", "b"), Some("-"));
        assert_eq!(t.value("W1", "b"), None);
        assert_eq!(num(None, 0), "-");
        assert_eq!(num(12.4, 0), "12");
    }

    #[test]
    fn roundtrip_cells() {
        let t = sample();
        assert_eq!(t.cell("W1", "a"), Some("1.000"));
        assert_eq!(t.value("W1", "b"), Some(2.5));
        assert_eq!(t.cell("W2", "b"), Some("y"));
        assert_eq!(t.cell("W3", "a"), None);
        assert_eq!(t.cell("W1", "nope"), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_rendering() {
        let j = sample().to_json();
        assert!(j.contains("\"title\": \"Sample\""));
        // Numeric cells become numbers, textual cells stay strings.
        assert!(j.contains("\"W1\": { \"a\": 1.000, \"b\": 2.500 }"));
        assert!(j.contains("\"W2\": { \"a\": \"x\", \"b\": \"y\" }"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("Quote \" and \\ slash", &["r", "v"]);
        t.row("a\nb", vec!["x\"y".into()]);
        let j = t.to_json();
        assert!(j.contains("Quote \\\" and \\\\ slash"));
        assert!(j.contains("\"a\\nb\""));
        assert!(j.contains("x\\\"y"));
    }

    #[test]
    fn json_numbers_follow_the_json_grammar_not_rusts() {
        // Rust's `f64` parser accepts `+3`, `.5`, `5.` and `007`; JSON's
        // number grammar does not, so they must go out quoted.
        let mut t = Table::new("N", &["r", "a", "b", "c", "d"]);
        t.row(
            "rust",
            vec!["+3".into(), ".5".into(), "5.".into(), "007".into()],
        );
        t.row(
            "json",
            vec!["-1.5e3".into(), "12".into(), "NaN".into(), "3DS".into()],
        );
        assert_eq!(
            t.to_json(),
            "{\n  \"title\": \"N\",\n  \"rows\": {\n    \
             \"rust\": { \"a\": \"+3\", \"b\": \".5\", \"c\": \"5.\", \"d\": \"007\" },\n    \
             \"json\": { \"a\": -1.5e3, \"b\": 12, \"c\": \"NaN\", \"d\": \"3DS\" }\n  \
             }\n}\n"
        );
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        assert!(s.contains("## Sample"));
        assert!(s.contains("workload"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "cell count must match headers")]
    fn wrong_cell_count_panics() {
        let mut t = Table::new("T", &["r", "a"]);
        t.row("x", vec!["1".into(), "2".into()]);
    }
}
