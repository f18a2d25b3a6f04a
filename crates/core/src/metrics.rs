//! The paper's three measurement points (§V-A) and summary helpers.
//! Percentiles of raw series come from [`dlhub_obs::p5_p50_p95`] and
//! [`dlhub_obs::exact_quantile`], the workspace's one rank rule.

use std::time::Duration;

/// Nested timings of one request.
///
/// * `inference` — "captured at the servable; the time taken … to run
///   the component".
/// * `invocation` — "captured at the Task Manager; elapsed time from
///   when a request is made to the executor to when the result is
///   received".
/// * `request` — "captured at the Management Service; the time from
///   receipt of the task request to receipt of its result".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Servable execution time.
    pub inference: Duration,
    /// Executor round trip as seen by the Task Manager.
    pub invocation: Duration,
    /// End-to-end time as seen by the Management Service.
    pub request: Duration,
    /// Whether the memo cache served this request.
    pub cache_hit: bool,
}

/// Mean of a duration series. `None` on an empty series.
pub fn mean(series: &[Duration]) -> Option<Duration> {
    if series.is_empty() {
        return None;
    }
    let total: Duration = series.iter().sum();
    Some(total / series.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_obs::{exact_quantile, p5_p50_p95};

    #[test]
    fn percentiles_ordered() {
        let series: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let (p5, p50, p95) = p5_p50_p95(&series).unwrap();
        // Nearest rank ceil(0.5 * 100) = 50 -> the 50th value of 1..=100.
        assert_eq!(p50, Duration::from_millis(50));
        assert!(p5 < p50 && p50 < p95);
        assert_eq!(p5, Duration::from_millis(5));
        assert_eq!(p95, Duration::from_millis(95));
        assert_eq!(exact_quantile(&series, 0.5), Some(p50));
        assert_eq!(exact_quantile(&series, 0.0), Some(Duration::from_millis(1)));
        assert_eq!(
            exact_quantile(&series, 1.0),
            Some(Duration::from_millis(100))
        );
    }

    #[test]
    fn single_sample_summary() {
        let (p5, p50, p95) = p5_p50_p95(&[Duration::from_millis(7)]).unwrap();
        assert_eq!(p5, p50);
        assert_eq!(p50, p95);
    }

    #[test]
    fn mean_of_series() {
        let series = vec![Duration::from_millis(10), Duration::from_millis(30)];
        assert_eq!(mean(&series), Some(Duration::from_millis(20)));
    }

    #[test]
    fn empty_series_report_none_consistently() {
        assert_eq!(p5_p50_p95::<Duration>(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(exact_quantile::<Duration>(&[], 0.5), None);
    }
}
