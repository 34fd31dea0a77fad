//! Experiment reports: typed [`Report`]s and their plain-text rendering.
//! [`crate::report_v1`] projects the same reports into JSON.

use std::fmt;

/// One block of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Verbatim text: titles, captions, notes, dendrograms, plots.
    Text(String),
    /// A table rendered by [`format_table`].
    Table {
        /// Column headers, left to right.
        columns: Vec<String>,
        /// Data rows as rendered: each has one cell per column.
        rows: Vec<Vec<String>>,
    },
    /// A representative subset, rendered `{context} (subset: a, b, c)`.
    Subset {
        /// What the subset covers (e.g. a sub-suite name).
        context: String,
        /// Member benchmark names.
        members: Vec<String>,
    },
    /// An error statistic, rendered `average error {:.1}%, max {:.1}%`.
    ErrorStat {
        /// Average error, percent.
        average_pct: f64,
        /// Maximum error, percent.
        max_pct: f64,
    },
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Block::Text(text) => f.write_str(text),
            Block::Table { columns, rows } => f.write_str(&format_table(columns, rows)),
            Block::Subset { context, members } => {
                writeln!(f, "{context} (subset: {})", members.join(", "))
            }
            Block::ErrorStat {
                average_pct,
                max_pct,
            } => writeln!(f, "average error {average_pct:.1}%, max {max_pct:.1}%"),
        }
    }
}

/// An experiment report: its blocks, in print order. `Display` renders
/// the text report. Blocks are added only through the methods below,
/// which keep every table row one cell per column.
#[must_use]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub(crate) blocks: Vec<Block>,
}

impl Report {
    /// Appends verbatim text.
    pub fn text(self, text: impl Into<String>) -> Report {
        self.push(Block::Text(text.into()))
    }

    /// Appends a table, with each row padded or cut to the header's width
    /// as [`format_table`] prints it.
    pub fn table(self, headers: &[&str], mut rows: Vec<Vec<String>>) -> Report {
        for row in &mut rows {
            row.resize(headers.len(), String::new());
        }
        let columns = headers.iter().map(|h| h.to_string()).collect();
        self.push(Block::Table { columns, rows })
    }

    /// Appends a subset callout.
    pub fn subset(self, context: impl Into<String>, members: &[String]) -> Report {
        let (context, members) = (context.into(), members.to_vec());
        self.push(Block::Subset { context, members })
    }

    /// Appends an error statistic.
    pub fn error_stat(self, average_pct: f64, max_pct: f64) -> Report {
        self.push(Block::ErrorStat {
            average_pct,
            max_pct,
        })
    }

    fn push(mut self, block: Block) -> Report {
        self.blocks.push(block);
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.blocks.iter().try_for_each(|b| write!(f, "{b}"))
    }
}

/// Renders a monospace table with a header row and `-` separator.
///
/// Columns are sized to the widest cell; all rows are padded/truncated to
/// the header's column count.
pub fn format_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (c, width) in widths.iter_mut().enumerate() {
            let cell = row.get(c).map(String::as_str).unwrap_or("");
            *width = (*width).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}", cell, w = widths[c]));
            if c + 1 < cells.len() {
                line.push_str("  ");
            }
        }
        line.trim_end().to_string()
    };
    out.push_str(&render_row(
        headers.iter().map(AsRef::as_ref).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        let cells: Vec<&str> = (0..cols)
            .map(|c| row.get(c).map(String::as_str).unwrap_or(""))
            .collect();
        out.push_str(&render_row(cells, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with a fixed number of decimals (report shorthand).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Renders labeled 2-D points as an ASCII scatter plot (the text analogue
/// of the paper's Figures 9–12). Each point is drawn with its marker
/// character; a legend mapping markers to labels follows the grid.
pub fn ascii_scatter(
    points: &[(char, String, f64, f64)],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    let width = width.max(16);
    let height = height.max(8);
    if points.is_empty() {
        return String::from("(no points)\n");
    }
    let min_max = |vals: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in vals {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if (hi - lo).abs() < 1e-12 {
            (lo - 1.0, hi + 1.0)
        } else {
            (lo, hi)
        }
    };
    let (x_lo, x_hi) = min_max(&mut points.iter().map(|p| p.2));
    let (y_lo, y_hi) = min_max(&mut points.iter().map(|p| p.3));
    let mut grid = vec![vec![' '; width]; height];
    for &(marker, _, x, y) in points {
        let cx = ((x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
        let cy = ((y - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
        let row = height - 1 - cy;
        // Later points do not overwrite earlier markers; show collisions.
        if grid[row][cx] == ' ' {
            grid[row][cx] = marker;
        } else if grid[row][cx] != marker {
            grid[row][cx] = '*';
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y_label}\n"));
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str(&format!("> {x_label}\n"));
    // Legend: one line per distinct marker.
    let mut seen: Vec<char> = Vec::new();
    for (marker, label, _, _) in points {
        if !seen.contains(marker) {
            seen.push(*marker);
            out.push_str(&format!("  {marker} = {label}\n"));
        }
    }
    out.push_str("  * = overlapping points\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "2.50".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn short_rows_padded() {
        let t = format_table(&["a", "b", "c"], &[vec!["x".into()]]);
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 0), "2");
    }

    #[test]
    fn scatter_renders_markers_and_legend() {
        let pts = vec![
            ('a', "alpha".to_string(), 0.0, 0.0),
            ('b', "beta".to_string(), 1.0, 1.0),
        ];
        let art = ascii_scatter(&pts, 20, 10, "PC1", "PC2");
        assert!(art.contains('a'));
        assert!(art.contains('b'));
        assert!(art.contains("a = alpha"));
        assert!(art.contains("PC1"));
    }

    #[test]
    fn scatter_handles_degenerate_ranges() {
        let pts = vec![('x', "only".to_string(), 2.0, 2.0)];
        let art = ascii_scatter(&pts, 20, 10, "x", "y");
        assert!(art.contains('x'));
    }

    #[test]
    fn scatter_marks_collisions() {
        let pts = vec![
            ('a', "a".to_string(), 0.5, 0.5),
            ('b', "b".to_string(), 0.5, 0.5),
            ('c', "c".to_string(), 9.0, 9.0),
        ];
        let art = ascii_scatter(&pts, 20, 10, "x", "y");
        assert!(art.contains('*'));
    }
}
