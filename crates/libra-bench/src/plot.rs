//! Terminal plots: multi-series line charts and bar charts rendered in
//! plain text, so each experiment can show the *shape* of its figure
//! right in the terminal next to the numbers (CSVs under `results/` remain
//! the precise artifact).

/// Render a multi-series line chart. Each series is `(label, points)` with
/// points sorted by x. Series are drawn with distinct glyphs; overlapping
/// cells show the later series.
pub fn line_chart(
    title: &str,
    series: &[(String, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, p)| p.iter().copied()).collect();
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
    for (si, (_, points)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        // Interpolate between consecutive points so lines look continuous.
        for w in points.windows(2).chain(std::iter::once(&points[points.len().saturating_sub(1)..]))
        {
            if w.is_empty() {
                continue;
            }
            let (xa, ya) = w[0];
            let (xb, yb) = if w.len() > 1 { w[1] } else { w[0] };
            let steps = width.max(2);
            for s in 0..=steps {
                let f = s as f64 / steps as f64;
                let x = xa + (xb - xa) * f;
                let y = ya + (yb - ya) * f;
                let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
                let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
                let cy = height - 1 - cy.min(height - 1);
                grid[cy][cx.min(width - 1)] = glyph;
            }
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let ylabel = if i == 0 {
            format!("{y1:>8.1}")
        } else if i == height - 1 {
            format!("{y0:>8.1}")
        } else {
            " ".repeat(8)
        };
        out.push_str(&ylabel);
        out.push_str(" |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("{:>9} {:<width$.1}\n", " ", x0, width = width - 8));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (l, _))| format!("{} {}", GLYPHS[i % GLYPHS.len()], l))
        .collect();
    out.push_str(&format!("{:>10}x∈[{:.1}, {:.1}]   {}\n", "", x0, x1, legend.join("   ")));
    out
}

/// Render a horizontal bar chart of labelled values.
pub fn bar_chart(title: &str, bars: &[(String, f64)], width: usize) -> String {
    let max = bars.iter().map(|b| b.1).fold(0.0_f64, f64::max).max(1e-12);
    let label_w = bars.iter().map(|b| b.0.len()).max().unwrap_or(4);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (label, v) in bars {
        let n = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!("{label:>label_w$} |{} {v:.2}\n", "#".repeat(n)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_renders_bounds_and_legend() {
        let series = vec![
            ("up".to_string(), vec![(0.0, 0.0), (10.0, 10.0)]),
            ("down".to_string(), vec![(0.0, 10.0), (10.0, 0.0)]),
        ];
        let s = line_chart("test", &series, 40, 10);
        assert!(s.contains("test"));
        assert!(s.contains("* up"));
        assert!(s.contains("o down"));
        assert!(s.contains("10.0"));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn line_chart_handles_empty_and_degenerate() {
        assert!(line_chart("t", &[], 20, 5).contains("no data"));
        let s = line_chart("t", &[("flat".into(), vec![(1.0, 2.0)])], 20, 5);
        assert!(s.contains("flat"));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart("bars", &[("a".into(), 1.0), ("b".into(), 2.0)], 10);
        let a_hashes = s.lines().find(|l| l.contains("a |")).unwrap().matches('#').count();
        let b_hashes = s.lines().find(|l| l.contains("b |")).unwrap().matches('#').count();
        assert_eq!(b_hashes, 10);
        assert_eq!(a_hashes, 5);
    }

    #[test]
    fn bar_chart_handles_zeroes() {
        let s = bar_chart("z", &[("x".into(), 0.0)], 10);
        assert!(s.contains("x |"));
    }
}
