//! The arithmetic the report rests on: nearest-rank percentiles, the
//! rule for which tail percentile a sample supports, and residual
//! accounting.

/// Samples that must lie beyond a tail percentile before it is
/// reported as supported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `q` (0 < q <= 1) among `n`
/// samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support percentile `q`: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile `q` of `values` (any order).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What `total` leaves once every named part is taken out: the
/// explicit remainder that makes a layer breakdown add up.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly ten beyond; of 999, nine.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p90 needs a hundred samples.
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert_eq!(beyond(0, 0.5), 0);
        assert!(!supports(5, 0.5));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn residual_is_what_the_parts_leave() {
        assert_eq!(residual(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(residual(1.0, &[]), 1.0);
        // An overcounted breakdown shows as a negative residual, not
        // a clamped zero.
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
        let parts = [1.5, 0.25, 40.0];
        let total = 44.0;
        assert_eq!(parts.iter().sum::<f64>() + residual(total, &parts), total);
    }

    #[test]
    fn ratios_and_means_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
