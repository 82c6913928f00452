//! Everything the `sim` binaries print: the sweep tables, the figures'
//! series and the ASCII sketches.
//!
//! A sweep table is a list of [`Row`]s, each an ordered list of named
//! columns. [`print_rows`] writes them as TSV under a header made of the
//! first row's names, and [`Row::json`] writes one row as a one-line JSON
//! object, so a column is named, valued and formatted once, where the row
//! is built. Every float a table or figure rounds goes through [`fixed`];
//! one given to [`Row::num`] prints in full (`{}`).
//!
//! Figures are emitted as tab-separated series (easy to pipe into any
//! plotting tool) plus a terminal-friendly ASCII sketch so a reader can see
//! the shape without leaving the shell — the smoltcp school of honest,
//! self-contained tooling.

use std::fmt::Display;
use std::io::Write;

/// `v` with `decimals` digits after the point: the one place a printed
/// float is rounded.
pub fn fixed(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// One row of a table: its columns in order, each a name and the text
/// printed for it.
#[derive(Clone, Debug, Default)]
pub struct Row {
    columns: Vec<Column>,
}

#[derive(Clone, Debug)]
struct Column {
    name: String,
    value: String,
    /// A string in JSON, where the other columns are bare numbers.
    quoted: bool,
}

impl Row {
    /// A row with no columns yet.
    pub fn new() -> Self {
        Row::default()
    }

    /// Appends a text column, `v` as it displays (a JSON string).
    pub fn text(self, name: impl Into<String>, v: impl Display) -> Self {
        self.push(name.into(), v.to_string(), true)
    }

    /// Appends a number column, `v` as it displays (bare in JSON; a JSON
    /// array of numbers displayed as one is bare too).
    pub fn num(self, name: impl Into<String>, v: impl Display) -> Self {
        self.push(name.into(), v.to_string(), false)
    }

    /// Appends a float column with `decimals` digits after the point
    /// ([`fixed`]).
    pub fn fixed(self, name: impl Into<String>, v: f64, decimals: usize) -> Self {
        self.push(name.into(), fixed(v, decimals), false)
    }

    fn push(mut self, name: String, value: String, quoted: bool) -> Self {
        self.columns.push(Column { name, value, quoted });
        self
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// The row as a one-line JSON object, `{"name": value, ...}`.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                let value = if c.quoted { jstr(&c.value) } else { c.value.clone() };
                format!("{}: {value}", jstr(&c.name))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `s` as a JSON string literal.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `rows` as TSV: a header of the first row's names, then one line
/// per row. A table with no rows prints nothing.
///
/// # Panics
///
/// If a row's names differ from the first row's.
pub fn print_rows(rows: &[Row], mut out: impl Write) -> std::io::Result<()> {
    let Some(first) = rows.first() else { return Ok(()) };
    writeln!(out, "{}", first.names().collect::<Vec<_>>().join("\t"))?;
    for row in rows {
        assert!(
            row.names().eq(first.names()),
            "ragged table: columns {:?} under header {:?}",
            row.names().collect::<Vec<_>>(),
            first.names().collect::<Vec<_>>()
        );
        let values: Vec<&str> = row.columns.iter().map(|c| c.value.as_str()).collect();
        writeln!(out, "{}", values.join("\t"))?;
    }
    Ok(())
}

/// A named series of (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// The points, in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

/// Prints series as TSV: `x<TAB>series1<TAB>series2...` when x-values align,
/// otherwise one `series<TAB>x<TAB>y` block per series.
pub fn print_tsv(header: &str, series: &[Series], mut out: impl Write) -> std::io::Result<()> {
    writeln!(out, "# {header}")?;
    let aligned = series.len() > 1
        && series.windows(2).all(|w| {
            w[0].points.len() == w[1].points.len()
                && w[0].points.iter().zip(&w[1].points).all(|(a, b)| (a.0 - b.0).abs() < 1e-12)
        });
    if aligned {
        let names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
        writeln!(out, "x\t{}", names.join("\t"))?;
        for i in 0..series[0].points.len() {
            let mut row = fixed(series[0].points[i].0, 6);
            for s in series {
                row.push('\t');
                row.push_str(&fixed(s.points[i].1, 6));
            }
            writeln!(out, "{row}")?;
        }
    } else {
        writeln!(out, "series\tx\ty")?;
        for s in series {
            for (x, y) in &s.points {
                writeln!(out, "{}\t{}\t{}", s.name, fixed(*x, 6), fixed(*y, 6))?;
            }
        }
    }
    Ok(())
}

/// Renders series as a crude ASCII scatter (one glyph per series).
pub fn ascii_plot(title: &str, series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = g;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    out.push_str(&format!("x: [{x0:.3}, {x1:.3}]  y: [{y0:.3}, {y1:.3}]  legend: "));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{}={} ", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_header_is_the_first_rows_names() {
        let rows: Vec<Row> =
            [1.0, 2.5].map(|v| Row::new().text("net", "A").num("n", 3).fixed("v", v, 2)).to_vec();
        let mut buf = Vec::new();
        print_rows(&rows, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "net\tn\tv\nA\t3\t1.00\nA\t3\t2.50\n");
        let mut empty = Vec::new();
        print_rows(&[], &mut empty).unwrap();
        assert!(empty.is_empty(), "a table with no rows prints nothing");
    }

    #[test]
    #[should_panic(expected = "ragged table")]
    fn a_ragged_row_panics() {
        let rows = [Row::new().num("a", 1).num("b", 2), Row::new().num("b", 2).num("a", 1)];
        print_rows(&rows, std::io::sink()).unwrap();
    }

    #[test]
    fn json_quotes_text_and_escapes_quotes_backslashes_and_control_characters() {
        let row = Row::new().text("label", "a\"b\\c\nd\u{1}").num("seed", 42).fixed("x", 0.5, 3);
        assert_eq!(row.json(), r#"{"label": "a\"b\\c\nd\u0001", "seed": 42, "x": 0.500}"#);
        assert_eq!(Row::new().json(), "{}");
    }

    #[test]
    fn tsv_aligned_series() {
        let s = vec![
            Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]),
            Series::new("b", vec![(0.0, 3.0), (1.0, 4.0)]),
        ];
        let mut buf = Vec::new();
        print_tsv("test", &s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("x\ta\tb"));
        assert!(text.contains("0.000000\t1.000000\t3.000000"));
    }

    #[test]
    fn tsv_ragged_series() {
        let s = vec![
            Series::new("a", vec![(0.0, 1.0)]),
            Series::new("b", vec![(0.5, 3.0), (1.0, 4.0)]),
        ];
        let mut buf = Vec::new();
        print_tsv("test", &s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("series\tx\ty"));
        assert!(text.contains("b\t0.500000\t3.000000"));
    }

    #[test]
    fn ascii_plot_renders() {
        let s = vec![Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)])];
        let plot = ascii_plot("t", &s, 20, 5);
        assert!(plot.contains('*'));
        assert!(plot.contains("legend: *=a"));
    }
}
