//! Order statistics over latency samples.

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p` % of the samples at or below it. With `n` samples, exactly
/// `n - ceil(p/100 · n)` samples lie beyond it, which is how runs are
/// sized so every bounded percentile has ten samples past it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (50th percentile, nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_past_p90_of_one_hundred() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(beyond(samples.len(), 90.0), 10);
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
