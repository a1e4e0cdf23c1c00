//! Order statistics for the reported metrics.

/// How many samples must lie beyond a reported percentile: a percentile
/// with fewer is mostly one or two outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (any order), provided at
/// least [`MIN_BEYOND`] samples lie above it; otherwise an error naming
/// how many samples the percentile needs.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&q), "quantile out of range: {q}");
    let n = samples.len();
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    let rank_of = |m: usize| ((q * m as f64 - 1e-9).ceil() as usize).max(1);
    let rank = rank_of(n);
    if n < rank + MIN_BEYOND {
        let needed = (n + 1..)
            .find(|&m| m >= rank_of(m) + MIN_BEYOND)
            .expect("some sample count suffices");
        return Err(format!(
            "p{} needs at least {needed} samples ({MIN_BEYOND} beyond it), got {n}",
            (q * 100.0).round()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The three quartiles of `values` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let k = (i as i64 + 1) * m;
        let j = (k / 4).clamp(1, n as i64 - 1);
        // After clamping, delta may leave 0..4: Python then
        // extrapolates, and so does this.
        let delta = (k - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The median of `values` (the middle quartile), or the single value.
pub fn median(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| q[1]),
    }
}

/// The arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The interquartile range as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
        let err = percentile(&hundred[..99], 0.9).unwrap_err();
        assert!(err.contains("needs at least 100 samples"), "{err}");
        assert!(percentile(&hundred, 0.99).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Ok(990.0));
        assert!(percentile(&hundred[..19], 0.5).is_err());
        assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Ok(180.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
