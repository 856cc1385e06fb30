//! Report formatting: the paper's table rows and figure series as text.

use crate::context::AnnotatedSpike;
use sift_simtime::format_spike_time;

/// Formats one Table 1 / Table 3 row:
/// `15 Feb. 2021–10h  TX  45  Winter storm`.
pub fn table1_row(spike: &AnnotatedSpike) -> String {
    format!(
        "{:<18} {:<5} {:>4}  {}",
        format_spike_time(spike.spike.start),
        spike.spike.state.abbrev(),
        spike.spike.duration_h(),
        spike.label()
    )
}

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
    use crate::context::Annotation;
    use crate::detect::Spike;
    use sift_geo::State;
    use sift_simtime::Hour;

    #[test]
    fn table1_row_matches_paper_style() {
        let spike = AnnotatedSpike {
            spike: Spike {
                state: State::TX,
                start: Hour::from_ymdh(2021, 2, 15, 10),
                peak: Hour::from_ymdh(2021, 2, 15, 20),
                end: Hour::from_ymdh(2021, 2, 17, 7),
                magnitude: 100.0,
            },
            annotations: vec![Annotation {
                label: "power outage".into(),
                weight: 500.0,
                heavy_hitter: true,
            }],
        };
        let row = table1_row(&spike);
        assert!(row.contains("15 Feb. 2021\u{2013}10h"), "{row}");
        assert!(row.contains("TX"), "{row}");
        assert!(row.contains("45"), "{row}");
        assert!(row.contains("power outage"), "{row}");
    }

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
