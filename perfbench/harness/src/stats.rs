//! Order statistics shared by the load generator and the traced run.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest ranks (so the median of `[1, 2, 3, 4]` is
/// 2.5). `None` for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 for an empty slice).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean of `samples` (0 for an empty slice).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How many samples lie strictly above the `q`-quantile: the tail a
/// reported percentile rests on.
#[must_use]
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(cut) => samples.iter().filter(|&&x| x > cut).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        // 0.95 * 3 = 2.85 -> 3 + 0.85 * (4 - 3).
        assert!((quantile(&xs, 0.95).unwrap() - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn p95_of_one_to_two_hundred_has_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 0.95 * 199 = 189.05 -> 190.05, leaving 191..=200 above it.
        assert!((quantile(&xs, 0.95).unwrap() - 190.05).abs() < 1e-9);
        assert_eq!(samples_beyond(&xs, 0.95), 10);
        assert_eq!(median(&xs), 100.5);
    }

    #[test]
    fn mean_and_median_of_empty_input_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
