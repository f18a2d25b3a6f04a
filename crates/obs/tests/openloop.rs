//! Property tests for the open-loop recorder: the corrected
//! (intended-start) latency dominates the raw service latency for
//! every request, individually and at every quantile, and the HDR
//! histogram honours the exact-sort oracle under random loads.

use dlhub_obs::{exact_quantile, HdrHistogram, OpenLoopRecorder, OpenLoopSample, FINE};
use proptest::prelude::*;

proptest! {
    /// For any schedule (intended <= started <= completed), the
    /// corrected latency is >= the raw service latency per request,
    /// and therefore at every recorded quantile too.
    #[test]
    fn corrected_latency_dominates_raw_service_latency(
        requests in proptest::collection::vec(
            // (intended, backlog wait, service time) — all ns offsets.
            (0u64..10_000_000_000, 0u64..500_000_000, 1u64..200_000_000),
            1..200,
        )
    ) {
        let rec = OpenLoopRecorder::new();
        for (i, &(intended, backlog, service)) in requests.iter().enumerate() {
            let sample = OpenLoopSample {
                intended_ns: intended,
                started_ns: intended + backlog,
                completed_ns: intended + backlog + service,
                trace: i as u64 + 1,
            };
            // Per-request domination.
            prop_assert!(sample.corrected_ns() >= sample.uncorrected_ns());
            prop_assert_eq!(sample.uncorrected_ns(), service);
            prop_assert_eq!(sample.corrected_ns(), backlog + service);
            rec.record(sample);
        }
        // Distribution-level domination at every reported quantile.
        let report = rec.report().unwrap();
        prop_assert!(report.corrected.p50 >= report.uncorrected.p50);
        prop_assert!(report.corrected.p99 >= report.uncorrected.p99);
        prop_assert!(report.corrected.p999 >= report.uncorrected.p999);
        prop_assert!(report.corrected.max >= report.uncorrected.max);
        prop_assert_eq!(report.corrected.count, requests.len() as u64);
    }

    /// HDR quantiles track an exact sort within the advertised
    /// log-linear resolution for arbitrary sample sets.
    #[test]
    fn hdr_quantiles_track_exact_sort(
        values in proptest::collection::vec(1u64..100_000_000_000, 10..400),
        q_idx in 0usize..4,
    ) {
        let q = [0.5f64, 0.9, 0.99, 0.999][q_idx];
        let h = HdrHistogram::new(FINE);
        for &v in &values {
            h.record(v);
        }
        let exact = exact_quantile(&values, q).unwrap();
        let got = h.quantile(q).unwrap();
        let tolerance = (exact as f64 / FINE.sub_buckets() as f64 * 2.0).max(1.0);
        prop_assert!(
            (got as f64 - exact as f64).abs() <= tolerance,
            "q={} exact={} got={}", q, exact, got
        );
    }
}
