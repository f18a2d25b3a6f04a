//! One quantile rule for the whole benchmark: nearest rank,
//! `ceil(q · n)`-th smallest sample.

pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Samples strictly above the `q` quantile (the contract asks for at
/// least ten beyond any reported percentile).
pub fn beyond(samples: &[u64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s as f64 > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(beyond(&s, 0.99), 1);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
