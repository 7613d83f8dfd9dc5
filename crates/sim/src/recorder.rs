//! Lightweight measurement collection for experiments.
//!
//! A [`Recorder`] is a cloneable handle that simulation processes use to
//! record named samples (durations or scalars). After the run, the
//! experiment harness pulls summaries out of it. All experiment figures in
//! this repository are produced through this type.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::SimDuration;

#[derive(Default)]
struct Inner {
    /// Values per series, in recording order (seconds for durations,
    /// raw units otherwise).
    series: BTreeMap<String, Vec<f64>>,
}

/// Cloneable, thread-safe sample sink.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Recorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw value into the named series.
    pub fn record(&self, series: &str, value: f64) {
        self.inner.lock().series.entry(series.to_string()).or_default().push(value);
    }

    /// Record a duration (stored in seconds) into the named series.
    pub fn record_duration(&self, series: &str, d: SimDuration) {
        self.record(series, d.as_secs_f64());
    }

    /// The values of a series, in recording order.
    pub fn values(&self, series: &str) -> Vec<f64> {
        self.inner.lock().series.get(series).cloned().unwrap_or_default()
    }

    /// Summary statistics of a series, or `None` if it is empty.
    pub fn summary(&self, series: &str) -> Option<Summary> {
        let values = self.values(series);
        Summary::of(&values)
    }
}

/// Order statistics over a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Compute a summary; `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Some(Summary {
            n,
            mean,
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            stddev: var.sqrt(),
        })
    }
}

/// Linear-interpolation percentile of an already sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarise() {
        let r = Recorder::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.record("x", v);
        }
        let s = r.summary("x").unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.p50 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_has_no_summary() {
        let r = Recorder::new();
        assert!(r.summary("missing").is_none());
        assert!(r.values("missing").is_empty());
    }

    #[test]
    fn durations_stored_as_seconds() {
        let r = Recorder::new();
        r.record_duration("d", SimDuration::from_millis(250));
        assert_eq!(r.values("d"), vec![0.25]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert!((percentile(&v, 0.5) - 25.0).abs() < 1e-12);
    }
}
