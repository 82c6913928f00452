//! TSV series output and quick ASCII plots for the `figures` binary.
//!
//! Figures are emitted as tab-separated series (easy to pipe into any
//! plotting tool) plus a terminal-friendly ASCII sketch so a reader can see
//! the shape without leaving the shell — the smoltcp school of honest,
//! self-contained tooling.

use std::io::Write;

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
            let mut row = format!("{:.6}", series[0].points[i].0);
            for s in series {
                row.push_str(&format!("\t{:.6}", s.points[i].1));
            }
            writeln!(out, "{row}")?;
        }
    } else {
        writeln!(out, "series\tx\ty")?;
        for s in series {
            for (x, y) in &s.points {
                writeln!(out, "{}\t{x:.6}\t{y:.6}", s.name)?;
            }
        }
    }
    Ok(())
}

/// The column header line of the `scenario_sweep` TSV: one row per (load,
/// locality, network, matrix, scheme). Emitted once, then one
/// [`print_records_rows`] block per scenario.
pub fn print_records_header(mut out: impl Write) -> std::io::Result<()> {
    writeln!(
        out,
        "load\tlocality\tnetwork\tclass\tllpd\ttm\tscheme\tcongested_fraction\t\
         latency_stretch\tmax_stretch\tmax_util\tfits\truntime_ms"
    )
}

/// One scenario's raw [`RunRecord`]s as data rows, each led by the
/// scenario's (load, locality) so rows from different sweep points stay
/// distinguishable in one stream.
///
/// [`RunRecord`]: crate::runner::RunRecord
pub fn print_records_rows(
    records: &[crate::runner::RunRecord],
    (load, locality): (f64, f64),
    mut out: impl Write,
) -> std::io::Result<()> {
    for r in records {
        writeln!(
            out,
            "{load}\t{locality}\t{}\t{:?}\t{:.4}\t{}\t{}\t{:.6}\t{:.6}\t{:.4}\t{:.4}\t{}\t{:.2}",
            r.network,
            r.class,
            r.llpd,
            r.tm_index,
            r.scheme,
            r.congested_fraction,
            r.latency_stretch,
            r.max_flow_stretch,
            r.max_utilization,
            r.fits,
            r.runtime_ms
        )?;
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
