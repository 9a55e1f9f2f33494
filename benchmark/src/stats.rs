//! The statistics every metric is built from. All helpers take raw
//! samples and never round, so reported values keep all their digits.

/// Linear-interpolation quantile `q ∈ [0, 1]` of `values` (the
/// "inclusive" method: the minimum is q=0, the maximum q=1). `None` on
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Geometric mean of strictly positive `values`; `None` on an empty
/// slice or when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The `p`-th percentile (0 < p < 100) of a sample, refused (`None`)
/// unless at least ten samples lie beyond it: a tail percentile read
/// from fewer samples is one or two outliers, not a distribution.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (100.0 - p) / 100.0;
    if beyond < 10.0 {
        return None;
    }
    quantile(values, p / 100.0)
}

/// Geometric mean over rows of each row's mean: `rows[r]` holds the
/// samples of row `r`. `None` if any row is empty or non-positive.
pub fn geomean_of_row_means(rows: &[Vec<f64>]) -> Option<f64> {
    let means: Option<Vec<f64>> = rows
        .iter()
        .map(|r| (!r.is_empty()).then(|| r.iter().sum::<f64>() / r.len() as f64))
        .collect();
    geomean(&means?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn geomean_of_row_means_uses_each_rows_mean() {
        // Row means 2 and 8 -> geomean 4.
        let rows = vec![vec![1.0, 3.0, 2.0], vec![8.0, 4.0, 12.0]];
        let g = geomean_of_row_means(&rows).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean_of_row_means(&[vec![1.0], vec![]]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: exactly 10 lie beyond p90.
        assert!(percentile(&hundred, 90.0).is_some());
        // 99 samples: 9.9 beyond p90, refused; p50 is fine.
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        assert!(percentile(&hundred[..99], 50.0).is_some());
        // p99 needs 1000 samples.
        assert_eq!(percentile(&hundred, 99.0), None);
    }

    #[test]
    fn percentile_matches_inclusive_quantiles() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.25), Some(12.5));
    }
}
