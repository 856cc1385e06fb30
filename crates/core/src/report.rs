//! Report formatting: the paper's figure series as text.

/// Renders a numeric series as a compact ASCII sparkline (one char per
/// bucket), handy for eyeballing timelines in terminal reports.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|v| {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "values are non-negative; float `as` saturates and `min(7)` clamps"
            )]
            let idx = ((v / max) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Downsamples a series by taking the maximum of each chunk — preserves
/// spikes when rendering long timelines at terminal width.
pub fn downsample_max(values: &[f64], buckets: usize) -> Vec<f64> {
    if values.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let chunk = values.len().div_ceil(buckets);
    values
        .chunks(chunk)
        .map(|c| c.iter().copied().fold(0.0f64, f64::max))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[0.0, 50.0, 100.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn downsample_keeps_peaks() {
        let mut v = vec![0.0; 100];
        v[57] = 99.0;
        let d = downsample_max(&v, 10);
        assert_eq!(d.len(), 10);
        assert!((d[5] - 99.0).abs() < 1e-12);
        assert!(downsample_max(&[], 10).is_empty());
    }
}
