//! Distribution summaries: nearest-rank percentiles with a sample-count
//! rule, medians and quartile spreads.

/// Fewest samples for which a p99 is reported: the rule is "the highest
/// percentile with at least ten samples beyond it".
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The p99 of an ascending slice, refused when fewer than
/// [`P99_MIN_SAMPLES`] samples back it (fewer than ten would lie beyond).
pub fn p99(sorted: &[u64]) -> Result<u64, String> {
    if sorted.len() < P99_MIN_SAMPLES {
        return Err(format!(
            "p99 needs at least {P99_MIN_SAMPLES} samples, got {}",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, 99.0))
}

/// The p99 when the sample supports it, otherwise the highest percentile
/// that still has ten samples beyond it (or the maximum below 20 samples).
/// Used for per-layer figures, which are reported but never gated.
pub fn tail(sorted: &[u64]) -> u64 {
    if let Ok(v) = p99(sorted) {
        return v;
    }
    if sorted.len() < 20 {
        return *sorted.last().expect("tail of an empty sample");
    }
    sorted[sorted.len() - 11]
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Median of unsorted floats (mean of the two middle values for an even
/// count; 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile (exclusive method, the
/// one Python's `statistics.quantiles(values, n=4)` uses); 0 below two
/// samples.
pub fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    quantile(3.0) - quantile(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let short: Vec<u64> = (0..999).collect();
        assert!(p99(&short).is_err());
        let enough: Vec<u64> = (0..1000).collect();
        // Rank 990 of 1000: exactly ten samples lie beyond it.
        assert_eq!(p99(&enough), Ok(989));
        assert_eq!(enough.len() - 1 - 989, 10);
    }

    #[test]
    fn tail_degrades_to_ten_beyond_then_max() {
        let s: Vec<u64> = (0..100).collect();
        assert_eq!(tail(&s), 89);
        assert_eq!(tail(&[3, 9]), 9);
        let big: Vec<u64> = (0..2000).collect();
        assert_eq!(tail(&big), 1979);
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        assert_eq!(iqr(&[1.0]), 0.0);
    }
}
