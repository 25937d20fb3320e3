//! Order statistics over timing samples.
//!
//! Quantiles interpolate linearly between the two closest ranks at
//! position `(n − 1)·q` (numpy's default), so a median of an even count is
//! the mean of the middle pair, and a percentile of a short series never
//! reads past the largest sample.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, which must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest of `values` (non-empty).
pub fn max(values: &[f64]) -> f64 {
    quantile(values, 1.0)
}

/// `median [q1, q3] max (n=…)`, for the human-readable report.
pub fn describe(values: &[f64]) -> String {
    if values.is_empty() {
        return "no samples".to_string();
    }
    format!(
        "median {:.4} [q1 {:.4}, q3 {:.4}] p90 {:.4} p99 {:.4} max {:.4} (n={})",
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75),
        quantile(values, 0.90),
        quantile(values, 0.99),
        max(values),
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(max(&v), 4.0);
        // position 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3)
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
