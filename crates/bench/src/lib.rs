//! # workshare-bench — the paper's figures as rows, and the gates over them
//!
//! Every figure and table of the paper's evaluation (§5) is one function
//! `fn(Scale) -> Vec<Row>` in [`figures`]; one pipeline consumes the rows:
//! [`pivot`] renders them as text tables, [`Row::to_json`] writes them as
//! JSON lines through the one JSON writer ([`json`]), and [`predicates`]
//! evaluates the paper's conclusions over them. The `figures` binary is the
//! driver (`cargo run --release -p workshare-bench --bin figures -- --check`
//! is the gate) for every virtual-time claim. The one bench in `benches/`,
//! the filter kernel's wall-clock speed-up, prints its numbers through the
//! same writer and gates itself.

use std::fmt::Write as _;

use json::Json;

pub mod figures;
pub mod predicates;

/// *The* JSON writer: the ledger's, included unedited until a benchmark-only
/// PR can move the file to `crates/common` (ROADMAP item 4).
#[path = "bin/ledger/json.rs"]
pub mod json;

/// What `json.rs`'s own unit tests import as `crate::metrics`. In the ledger
/// that is its metric tables; here it is the units this crate's rows carry,
/// so the round-trip test runs over this crate's vocabulary.
#[cfg(test)]
mod metrics {
    pub struct Metric {
        pub name: &'static str,
        pub unit: &'static str,
    }
    const fn metric(name: &'static str, unit: &'static str) -> Metric {
        Metric { name, unit }
    }
    pub const END_TO_END: [Metric; 3] = [
        metric("mean_latency", "ms"),
        metric("read_rate", "MB/s"),
        metric("shares", "count"),
    ];
    pub const PER_LAYER: [Metric; 0] = [];
    pub fn valid_name(name: &str) -> bool {
        name.chars().all(|c| c.is_ascii_lowercase() || c == '_')
    }
}

/// Sweep of concurrency levels: powers of two from 1 to `max`.
pub fn pow2_sweep(max: usize) -> Vec<usize> {
    let mut v = vec![1];
    while *v.last().unwrap() < max {
        let next = v.last().unwrap() * 2;
        v.push(next.min(max));
    }
    v.dedup();
    v
}

/// One measured number of one figure: the cell at (`x`, `series`) of the
/// table `panel`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Figure id (`fig10`, `table01`, …).
    pub figure: &'static str,
    /// Which table of the figure the number belongs to.
    pub panel: &'static str,
    /// Sweep point (queries, selectivity, scale factor, …), as printed.
    pub x: String,
    /// Curve the point is on (an engine configuration, a CPU component, …).
    pub series: String,
    /// What was measured (`mean_latency`, `avg_cores_used`, …).
    pub metric: &'static str,
    /// The measurement, in `unit`. Times are virtual.
    pub value: f64,
    /// `ms`, `count`, `MB/s`, `cores`, `q/h`, `x` (a ratio) or `%`.
    pub unit: &'static str,
}

impl Row {
    /// The row as one JSON object (one line of `figures --json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("figure", Json::Str(self.figure.into())),
            ("panel", Json::Str(self.panel.into())),
            ("x", Json::Str(self.x.clone())),
            ("series", Json::Str(self.series.clone())),
            ("metric", Json::Str(self.metric.into())),
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.into())),
        ])
    }
}

/// Where `figures --check` finds committed figure rows: `<id>.jsonl`, one
/// line of `figures <id> --json` per row, at default scale.
pub const COMMITTED_ROWS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/figures");

/// Diff a figure's rows, rendered as `figures --json` prints them, against
/// the committed JSON lines: `None` when they agree byte for byte, else a
/// message naming the first line that differs and both row counts.
pub fn diff_rows(rows: &[Row], committed: &str) -> Option<String> {
    let measured: Vec<String> = rows.iter().map(|r| r.to_json().render()).collect();
    let committed: Vec<&str> = committed.lines().collect();
    let first = (0..measured.len().max(committed.len()))
        .find(|&i| measured.get(i).map(String::as_str) != committed.get(i).copied())?;
    Some(format!(
        "line {}: committed {}, measured {} ({} rows committed, {} measured)",
        first + 1,
        committed.get(first).unwrap_or(&"nothing"),
        measured.get(first).map_or("nothing", String::as_str),
        committed.len(),
        measured.len(),
    ))
}

/// A value as a table cell: counts as integers, everything else to four
/// significant digits (so 6.9 ms and 7.4 ms do not both read `0.007`).
pub fn cell(value: f64, unit: &str) -> String {
    if unit == "count" || value == 0.0 || !value.is_finite() {
        return format!("{value:.0}");
    }
    let magnitude = value.abs().log10().floor() as i32;
    format!("{value:.*}", (3 - magnitude).max(0) as usize)
}

/// `items` without repeats, in order of first appearance.
pub fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Render rows as text tables: one table per (figure, panel) in order of
/// first appearance, `x` down, `series` across, `-` where a cell is missing.
/// The corner cell is the panel's unit.
pub fn pivot(rows: &[Row]) -> String {
    let mut out = String::new();
    for (figure, panel) in distinct(rows.iter().map(|r| (r.figure, r.panel))) {
        let of_panel: Vec<&Row> = rows
            .iter()
            .filter(|r| r.figure == figure && r.panel == panel)
            .collect();
        let xs = distinct(of_panel.iter().map(|r| r.x.as_str()));
        let series = distinct(of_panel.iter().map(|r| r.series.as_str()));
        let unit = of_panel[0].unit;
        let mixed = of_panel.iter().any(|r| r.unit != unit);
        let mut header = vec![if mixed { "" } else { unit }];
        header.extend(&series);
        let mut table = TextTable::new(&header);
        for x in xs {
            let mut cells = vec![x.to_string()];
            for s in &series {
                let hit = of_panel.iter().find(|r| r.x == x && r.series == *s);
                cells.push(hit.map_or("-".into(), |r| cell(r.value, r.unit)));
            }
            table.row(cells);
        }
        let _ = writeln!(out, "\n{figure} · {panel}");
        out.push_str(&table.render());
    }
    out
}

/// Simple fixed-width text table printer.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_capped() {
        assert_eq!(pow2_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(pow2_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(pow2_sweep(1), vec![1]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "config"]);
        t.row(vec!["1".into(), "QPipe".into()]);
        t.row(vec!["256".into(), "CJOIN-SP".into()]);
        let r = t.render();
        assert!(r.contains("QPipe"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    pub(crate) fn row(
        panel: &'static str,
        x: &str,
        series: &str,
        value: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            figure: "figXX",
            panel,
            x: x.into(),
            series: series.into(),
            metric: "m",
            value,
            unit,
        }
    }

    #[test]
    fn cells_keep_four_significant_digits() {
        assert_ne!(cell(6.9, "ms"), cell(7.4, "ms"));
        assert_eq!(cell(6.9, "ms"), "6.900");
        assert_eq!(cell(0.869584, "ms"), "0.8696");
        assert_eq!(cell(7583.2, "ms"), "7583");
        assert_eq!(cell(93.86, "MB/s"), "93.86");
        assert_eq!(cell(112.0, "count"), "112");
        assert_eq!(cell(0.0, "ms"), "0");
    }

    #[test]
    fn pivot_handles_ragged_panels_and_missing_cells() {
        let rows = vec![
            row("response time", "1", "QPipe", 14.21, "ms"),
            row("response time", "1", "CJOIN", 5.4, "ms"),
            row("response time", "128", "QPipe", 109.3, "ms"),
            // No CJOIN cell at 128, and a series the first x never had.
            row("response time", "128", "CJOIN-SP", 17.0, "ms"),
            row("read rate", "128", "QPipe", 89.07, "MB/s"),
            row("shares", "128", "1st", 97.0, "count"),
        ];
        let text = pivot(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "figXX · response time");
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["ms", "QPipe", "CJOIN", "CJOIN-SP"]
        );
        assert_eq!(
            lines[4].split_whitespace().collect::<Vec<_>>(),
            ["1", "14.21", "5.400", "-"]
        );
        assert_eq!(
            lines[5].split_whitespace().collect::<Vec<_>>(),
            ["128", "109.3", "-", "17.00"]
        );
        assert!(text.contains("figXX · read rate\nMB/s  QPipe"));
        assert!(text.contains("count  1st"));
        assert!(text.contains("  128   97  \n"));
    }

    #[test]
    fn committed_rows_diff_by_first_differing_line() {
        let rows = vec![
            row("response time", "1", "QPipe", 14.21, "ms"),
            row("response time", "2", "QPipe", 15.5, "ms"),
        ];
        let text: String = rows.iter().map(|r| r.to_json().render() + "\n").collect();
        assert_eq!(diff_rows(&rows, &text), None);
        let moved = text.replace("15.5", "15.6");
        let msg = diff_rows(&rows, &moved).expect("a moved value differs");
        assert!(msg.starts_with("line 2: committed"), "{msg}");
        let first_only = text.lines().next().unwrap();
        let msg = diff_rows(&rows, first_only).expect("a missing row differs");
        assert!(msg.contains("committed nothing"), "{msg}");
        assert!(msg.ends_with("(1 rows committed, 2 measured)"), "{msg}");
    }

    #[test]
    fn a_row_is_one_json_line_that_reads_back() {
        let r = row("response time", "0.16%", "CS (SPL)", 6.9, "ms");
        let line = r.to_json().render();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("x").and_then(Json::as_str), Some("0.16%"));
        assert_eq!(back.get("value").and_then(Json::as_f64), Some(6.9));
    }
}
