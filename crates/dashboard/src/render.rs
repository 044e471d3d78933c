//! Text rendering primitives for panels.

/// Renders a sparkline-style ASCII chart of `values` with the given width and
/// height.  Values are downsampled (mean per bucket) to fit the width.
pub(crate) fn render_ascii_chart(values: &[f64], width: usize, height: usize) -> String {
    let width = width.clamp(8, 200);
    let height = height.clamp(2, 40);
    if values.is_empty() {
        return "(no data)\n".to_string();
    }
    // Downsample to `width` buckets.
    let buckets: Vec<f64> = (0..width)
        .map(|i| {
            let start = i * values.len() / width;
            let end = (((i + 1) * values.len()) / width).max(start + 1).min(values.len());
            let slice = &values[start..end.max(start + 1).min(values.len())];
            if slice.is_empty() {
                f64::NAN
            } else {
                slice.iter().sum::<f64>() / slice.len() as f64
            }
        })
        .collect();
    let finite: Vec<f64> = buckets.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "(no data)\n".to_string();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(f64::MIN_POSITIVE);

    let mut rows = vec![vec![' '; width]; height];
    for (x, value) in buckets.iter().enumerate() {
        if !value.is_finite() {
            continue;
        }
        let level = (((value - min) / span) * (height - 1) as f64).round() as usize;
        for (y, row) in rows.iter_mut().enumerate() {
            // y = 0 is the top row.
            let row_level = height - 1 - y;
            if row_level == level {
                row[x] = '*';
            } else if row_level < level {
                row[x] = '.';
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("max {max:.2}\n"));
    for row in rows {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("min {min:.2} ({} samples)\n", values.len()));
    out
}

/// Renders a filled gauge bar `value / max`.
pub(crate) fn render_gauge(value: f64, max: f64, width: usize) -> String {
    let width = width.clamp(10, 200);
    let bar_width = width.saturating_sub(2).max(4);
    let max = if max <= 0.0 { 1.0 } else { max };
    let fraction = (value / max).clamp(0.0, 1.0);
    let filled = (fraction * bar_width as f64).round() as usize;
    let mut bar = String::with_capacity(width + 24);
    bar.push('[');
    for i in 0..bar_width {
        bar.push(if i < filled { '#' } else { '-' });
    }
    bar.push(']');
    format!("{bar} {value:.1}/{max:.1} ({:.0}%)\n", fraction * 100.0)
}

/// Renders a two-column table of `(label, value)` rows.
pub(crate) fn render_table(rows: &[(String, f64)], unit: &str) -> String {
    if rows.is_empty() {
        return "(no rows)\n".to_string();
    }
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).min(60);
    let mut out = String::new();
    let mut sorted: Vec<&(String, f64)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (label, value) in sorted {
        let mut label = label.clone();
        if label.len() > label_width {
            label.truncate(label_width);
        }
        out.push_str(&format!("{label:<label_width$}  {value:>14.2} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_min_max_and_shape() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let chart = render_ascii_chart(&values, 40, 8);
        assert!(chart.contains("max 9"));
        assert!(chart.contains("min "));
        assert!(chart.contains('*'));
        assert_eq!(chart.lines().count(), 10);
    }

    #[test]
    fn chart_handles_empty_and_constant_series() {
        assert_eq!(render_ascii_chart(&[], 40, 8), "(no data)\n");
        let flat = render_ascii_chart(&[5.0; 30], 20, 4);
        assert!(flat.contains('*'));
    }

    #[test]
    fn gauge_scales_and_clamps() {
        let half = render_gauge(50.0, 100.0, 30);
        assert!(half.contains("(50%)"));
        let over = render_gauge(500.0, 100.0, 30);
        assert!(over.contains("(100%)"));
        let zero_max = render_gauge(1.0, 0.0, 30);
        assert!(zero_max.contains('['));
    }

    #[test]
    fn table_sorts_descending_and_handles_empty() {
        let rows = vec![("small".to_string(), 1.0), ("big".to_string(), 100.0)];
        let table = render_table(&rows, "ops");
        let first_line = table.lines().next().unwrap();
        assert!(first_line.contains("big"));
        assert!(table.contains("ops"));
        assert_eq!(render_table(&[], ""), "(no rows)\n");
    }
}
