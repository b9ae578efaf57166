//! Plain-text and markdown table rendering for experiment output.

/// A rendered experiment table: header + rows of equal arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form note comparing against the paper's reported numbers.
    pub note: String,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Fixed-width console rendering.
    pub fn to_console(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let render = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row, &widths));
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("note: {}\n", self.note));
        }
        out
    }

    /// GitHub-flavored markdown rendering (EXPERIMENTS.md format).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n{}\n", self.note));
        }
        out
    }
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a ratio as `N.Nx`.
pub fn ratio(v: f64) -> String {
    format!("{v:.1}x")
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["class", "ms"]);
        t.push(vec!["country".into(), "12.3".into()]);
        t.push(vec!["city".into(), "0.5".into()]);
        t.with_note("paper: 5x")
    }

    #[test]
    fn console_contains_all_cells() {
        let s = sample().to_console();
        for needle in [
            "demo",
            "class",
            "country",
            "12.3",
            "city",
            "0.5",
            "paper: 5x",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn markdown_is_table_shaped() {
        let s = sample().to_markdown();
        assert!(s.starts_with("### demo"));
        assert!(s.contains("| class | ms |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("| country | 12.3 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(123.456), "123");
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(ms(1.234), "1.23");
        assert_eq!(ratio(5.67), "5.7x");
        assert_eq!(pct(0.42), "42%");
    }
}
