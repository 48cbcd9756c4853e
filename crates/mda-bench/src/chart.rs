//! Minimal ASCII charting for the harness: sparklines and time-series
//! bands, used by the Fig. 15 occupancy output so the rise/fall shape is
//! visible at a glance in terminal output.

/// Eight-level block characters, low to high.
const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` (in `[0, 1]`) as a sparkline string.
pub fn sparkline(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| {
            let clamped = v.clamp(0.0, 1.0);
            let idx = ((clamped * (LEVELS.len() as f64)) as usize).min(LEVELS.len() - 1);
            LEVELS[idx]
        })
        .collect()
}

/// Downsamples `values` to at most `width` points by averaging buckets.
fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if values.is_empty() || width == 0 {
        return Vec::new();
    }
    if values.len() <= width {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(width);
    for b in 0..width {
        let lo = b * values.len() / width;
        let hi = ((b + 1) * values.len() / width).max(lo + 1);
        let bucket = &values[lo..hi.min(values.len())];
        out.push(bucket.iter().sum::<f64>() / bucket.len() as f64);
    }
    out
}

/// Renders a labelled sparkline row: `label |▁▂▅███| min→max`.
pub fn labelled_sparkline(label: &str, values: &[f64], width: usize) -> String {
    let ds = downsample(values, width);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if ds.is_empty() {
        return format!("{label:>8} |{}|", " ".repeat(width));
    }
    format!(
        "{label:>8} |{}| {:>5.1}%→{:>5.1}% (peak {:>5.1}%)",
        sparkline(&ds),
        values.first().copied().unwrap_or(0.0) * 100.0,
        values.last().copied().unwrap_or(0.0) * 100.0,
        if max.is_finite() { max * 100.0 } else { 0.0 },
    )
    .replace("inf", &format!("{:.1}", min))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn sparkline_clamps_out_of_range() {
        let s = sparkline(&[-3.0, 7.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars, vec!['▁', '█']);
    }

    #[test]
    fn downsample_averages_buckets() {
        let v: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let ds = downsample(&v, 10);
        assert_eq!(ds.len(), 10);
        assert!(ds.windows(2).all(|w| w[0] < w[1]), "monotone input stays monotone");
        // Short inputs pass through untouched.
        assert_eq!(downsample(&[0.5, 0.7], 10), vec![0.5, 0.7]);
        assert!(downsample(&[], 10).is_empty());
        assert!(downsample(&[0.1], 0).is_empty());
    }

    #[test]
    fn labelled_row_mentions_endpoints() {
        let rise: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let row = labelled_sparkline("L3", &rise, 16);
        assert!(row.contains("L3"));
        assert!(row.contains("0.0%"));
        assert!(row.contains("98.0%"));
    }
}
