//! Everything the `sim` binaries print: the sweep tables, the figures'
//! series and the ASCII sketches.
//!
//! A sweep table is a list of [`Row`]s, each an ordered list of named
//! columns. [`print_rows`] writes them as TSV under a header made of the
//! first row's names, and [`Row::json`] writes one row as a one-line JSON
//! object, so a column is named, valued and formatted once, where the row
//! is built.
//!
//! A float prints in full, everywhere: a [`Row::num`] cell, a JSON value
//! and a [`print_tsv`] point are `{}`, Rust's shortest text that parses
//! back to the same bits, so a column has a name and a value and no
//! precision to choose. Text that is not a data value keeps its rounding:
//! the axis legend of [`ascii_plot`], a series label such as
//! `llpd=0.42` (a column *name*), a binary's progress lines on stderr.
//!
//! Figures are emitted as tab-separated series (easy to pipe into any
//! plotting tool) plus a terminal-friendly ASCII sketch so a reader can see
//! the shape without leaving the shell — the smoltcp school of honest,
//! self-contained tooling.

use std::fmt::Display;
use std::io::Write;

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
            write!(out, "{}", series[0].points[i].0)?;
            for s in series {
                write!(out, "\t{}", s.points[i].1)?;
            }
            writeln!(out)?;
        }
    } else {
        writeln!(out, "series\tx\ty")?;
        for s in series {
            for (x, y) in &s.points {
                writeln!(out, "{}\t{x}\t{y}", s.name)?;
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
            [1.0, 2.5].map(|v| Row::new().text("net", "A").num("n", 3).num("v", v)).to_vec();
        let mut buf = Vec::new();
        print_rows(&rows, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "net\tn\tv\nA\t3\t1\nA\t3\t2.5\n");
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
        let row = Row::new().text("label", "a\"b\\c\nd\u{1}").num("seed", 42).num("x", 0.5);
        assert_eq!(row.json(), r#"{"label": "a\"b\\c\nd\u0001", "seed": 42, "x": 0.5}"#);
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
        assert!(text.contains("0\t1\t3"));
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
        assert!(text.contains("b\t0.5\t3"));
    }

    /// Every cell of `text` after its first `skip` lines, split on tabs
    /// and newlines.
    fn cells(text: &str, skip: usize) -> Vec<&str> {
        text.lines().skip(skip).flat_map(|line| line.split('\t')).collect()
    }

    #[test]
    fn every_float_prints_back_to_its_bits() {
        let mut values = vec![-0.0, 0.0, f64::from_bits(1), f64::MAX, f64::MIN, 0.1 + 0.2, 1e-300];
        // Random finite bit patterns from a seeded splitmix64 stream.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        while values.len() < 2000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let v = f64::from_bits(z ^ (z >> 31));
            if v.is_finite() {
                values.push(v);
            }
        }
        let rows: Vec<Row> = values.iter().map(|&v| Row::new().num("v", v)).collect();
        let mut table = Vec::new();
        print_rows(&rows, &mut table).unwrap();
        let table = String::from_utf8(table).unwrap();
        let points: Vec<(f64, f64)> = values.iter().map(|&v| (v, -v)).collect();
        let mut aligned = Vec::new();
        let (a, b) = (Series::new("a", points.clone()), Series::new("b", points.clone()));
        print_tsv("t", &[a, b], &mut aligned).unwrap();
        let aligned = String::from_utf8(aligned).unwrap();
        let mut single = Vec::new();
        print_tsv("t", &[Series::new("a", points)], &mut single).unwrap();
        let single = String::from_utf8(single).unwrap();
        let json: Vec<String> = rows.iter().map(Row::json).collect();

        let expect = |printed: Vec<&str>, want: Vec<f64>, how: &str| {
            assert_eq!(printed.len(), want.len(), "{how}");
            for (text, v) in printed.into_iter().zip(want) {
                let back: f64 = text.parse().unwrap_or_else(|_| panic!("{how}: {text:?}"));
                assert_eq!(back.to_bits(), v.to_bits(), "{how}: {v:e} printed as {text}");
            }
        };
        expect(cells(&table, 1), values.clone(), "Row::num");
        expect(cells(&aligned, 2), values.iter().flat_map(|&v| [v, -v, -v]).collect(), "aligned");
        let single_cells: Vec<&str> = cells(&single, 2).into_iter().filter(|c| *c != "a").collect();
        expect(single_cells, values.iter().flat_map(|&v| [v, -v]).collect(), "per series");
        let json_values: Vec<&str> = json
            .iter()
            .map(|j| j.strip_prefix("{\"v\": ").unwrap().strip_suffix('}').unwrap())
            .collect();
        expect(json_values, values, "Row::json");
    }

    #[test]
    fn ascii_plot_renders() {
        let s = vec![Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)])];
        let plot = ascii_plot("t", &s, 20, 5);
        assert!(plot.contains('*'));
        assert!(plot.contains("legend: *=a"));
    }
}
