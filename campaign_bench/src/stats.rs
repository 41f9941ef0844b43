//! Order statistics over per-cell and per-pass samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; below that the percentile is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle samples for an even count),
/// `None` when there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile level asked for, in percent.
    pub level: f64,
    /// The value, present only when at least [`MIN_BEYOND`] samples lie
    /// beyond its rank.
    pub value: Option<f64>,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples ranked above it.
    pub beyond: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value {
            Some(v) => write!(
                f,
                "p{} = {v:.3} (n = {}, {} beyond)",
                self.level, self.samples, self.beyond
            ),
            None => write!(
                f,
                "p{} not reported (n = {}, {} beyond; needs {MIN_BEYOND})",
                self.level, self.samples, self.beyond
            ),
        }
    }
}

/// Nearest-rank percentile `level` (in `(0, 100)`) of `values`. The value
/// is withheld unless at least [`MIN_BEYOND`] samples rank above it; the
/// sample count is always carried so a report can print it.
pub fn tail_percentile(values: &[f64], level: f64) -> Percentile {
    assert!(
        level > 0.0 && level < 100.0,
        "percentile level {level} outside (0, 100)"
    );
    let samples = values.len();
    if samples == 0 {
        return Percentile {
            level,
            value: None,
            samples,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // 1-based nearest rank: the smallest rank covering `level` percent.
    let rank = ((level / 100.0) * samples as f64).ceil().max(1.0) as usize;
    let beyond = samples - rank;
    Percentile {
        level,
        value: (beyond >= MIN_BEYOND).then(|| sorted[rank - 1]),
        samples,
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_percentile(&hundred, 90.0);
        assert_eq!(p90.value, Some(90.0));
        assert_eq!((p90.samples, p90.beyond), (100, 10));

        // One sample short: rank 90 of 99 leaves 9 beyond, so no value.
        let p90 = tail_percentile(&hundred[..99], 90.0);
        assert_eq!(p90.value, None);
        assert_eq!((p90.samples, p90.beyond), (99, 9));
        assert!(p90.to_string().contains("n = 99"), "{p90}");
    }

    #[test]
    fn p50_is_reported_from_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let p50 = tail_percentile(&twenty, 50.0);
        assert_eq!(p50.value, Some(10.0));
        assert_eq!(p50.beyond, 10);
        assert!(p50.to_string().contains("n = 20"), "{p50}");
        assert_eq!(tail_percentile(&twenty[..19], 50.0).value, None);
        assert_eq!(tail_percentile(&[], 50.0).samples, 0);
    }
}
