//! Small order-statistics helpers.

/// Nearest-rank quantile of an ascending slice (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (`0.0` when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = sorted((1..=100).map(f64::from));
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }
}
