//! Property tests for the exact SLO quantiles (`darms_sim::SloSummary::of`
//! and `darms_sim::exact_quantile`): for arbitrary latency streams —
//! including empty and single-sample streams — p50/p99/p999 must equal
//! an independently computed sorted-sample nearest-rank reference, and
//! every reported quantile must be an actually observed sample.

use darms_sim::{exact_quantile, SloSummary};
use proptest::prelude::*;

/// Independent nearest-rank reference: sort the raw samples and index
/// `ceil(q·n) - 1` directly (no shared code with the summary).
fn reference_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    let mut rank = (q * n).ceil() as usize;
    if rank == 0 {
        rank = 1;
    }
    if rank > sorted.len() {
        rank = sorted.len();
    }
    Some(sorted[rank - 1])
}

/// A latency stream: non-negative millisecond-scale values, length
/// 0..=300 so empty and single-sample streams are generated often.
fn latency_stream() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0u64..5_000_000, 0..300)
        .prop_map(|v| v.into_iter().map(|us| us as f64 / 1e6).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn estimator_matches_sorted_sample_reference(stream in latency_stream()) {
        let mut sorted = stream.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(
                exact_quantile(&sorted, q),
                reference_quantile(&stream, q),
                "q={} over {} samples",
                q,
                stream.len()
            );
        }
        match SloSummary::of(&stream) {
            None => prop_assert!(stream.is_empty(), "summary only missing for empty streams"),
            Some(s) => {
                prop_assert_eq!(s.count, stream.len() as u64);
                prop_assert_eq!(Some(s.p50), reference_quantile(&stream, 0.50));
                prop_assert_eq!(Some(s.p99), reference_quantile(&stream, 0.99));
                prop_assert_eq!(Some(s.p999), reference_quantile(&stream, 0.999));
                // Exactness: a nearest-rank quantile is an observed
                // sample, never an interpolation.
                prop_assert!(stream.contains(&s.p50));
                prop_assert!(stream.contains(&s.p99));
                prop_assert!(stream.contains(&s.p999));
                // Quantiles are monotone in q.
                prop_assert!(s.p50 <= s.p99 && s.p99 <= s.p999);
            }
        }
    }

    /// Pooling is concatenation, and the order the streams are pooled
    /// in does not matter.
    #[test]
    fn pooling_streams_equals_one_stream(a in latency_stream(), b in latency_stream()) {
        let ab: Vec<f64> = a.iter().chain(&b).copied().collect();
        let ba: Vec<f64> = b.iter().chain(&a).copied().collect();
        prop_assert_eq!(SloSummary::of(&ab), SloSummary::of(&ba));
        if let Some(s) = SloSummary::of(&ab) {
            prop_assert_eq!(s.count, (a.len() + b.len()) as u64);
        }
    }
}

#[test]
fn single_sample_stream_pins_every_quantile() {
    let s = SloSummary::of(&[0.125]).unwrap();
    assert_eq!((s.count, s.p50, s.p99, s.p999), (1, 0.125, 0.125, 0.125));
    assert_eq!(exact_quantile(&[0.125], 0.0), Some(0.125));
    assert_eq!(exact_quantile(&[], 0.5), None);
}
