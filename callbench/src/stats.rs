//! Order statistics over raw samples. Quantiles interpolate linearly
//! between the two nearest order statistics (the definition NumPy and
//! Python's `statistics.quantiles(method="inclusive")` use), never
//! histogram bucket bounds.

/// The `q` quantile (0 ≤ q ≤ 1) of ascending `sorted`; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Sort ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// How many samples lie strictly above `value`.
pub fn count_beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&s| s <= value)
}

/// Samples needed beyond a tail percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q` quantile of `sorted` and whether at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> (f64, bool) {
    let v = quantile(sorted, q);
    (v, count_beyond(sorted, v) >= MIN_TAIL_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles_match_known_vectors() {
        // Reference values from numpy.percentile (linear method).
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert!((quantile(&v, 0.99) - 9.91).abs() < 1e-12);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&w, 0.5), 2.5);
        assert!((quantile(&w, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 = 90.1, and 10 samples (91..=100) lie beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p90, ok) = tail(&v, 0.9);
        assert!((p90 - 90.1).abs() < 1e-9);
        assert_eq!(count_beyond(&v, p90), 10);
        assert!(ok);
        // 90 samples: p90 = 81.1 and only 9 (82..=90) lie beyond.
        let (p90, ok) = tail(&v[..90], 0.9);
        assert!((p90 - 81.1).abs() < 1e-9);
        assert!(!ok);
        // Ties at the percentile do not count as beyond it.
        let flat = vec![5.0; 200];
        assert!(!tail(&flat, 0.9).1);
    }
}
