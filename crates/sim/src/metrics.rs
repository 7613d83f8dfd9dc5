//! A uniform metrics registry: counters, time-weighted gauges
//! integrated over *virtual* time, and histograms with quantile
//! summaries.
//!
//! The registry complements the sample-series [`crate::Recorder`]: the
//! `Recorder` keeps raw named samples for offline analysis, the
//! `MetricsRegistry` is the uniform instrumentation surface every
//! subsystem (server, scheduler, DAC, network, engine) writes through.
//! It is cloneable — all clones share state — and mergeable:
//! [`MetricsRegistry::merge_from`] folds another registry in such that
//! the result equals having recorded everything into one registry
//! (counters sum; histograms pool samples; time-weighted gauges merge
//! their update timelines).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::recorder::percentile;
use crate::time::{SimDuration, SimTime};

/// Exact nearest-rank quantile of a **sorted** sample slice: the
/// smallest sample `x` such that at least `q · n` samples are `<= x`
/// (`sorted[ceil(q·n) - 1]`, clamped to the valid range). Unlike
/// [`crate::percentile`] this never interpolates — the result is always
/// an observed sample, which is the right definition for latency SLOs
/// ("p999 = the slowest request among the fastest 99.9%"). Returns
/// `None` on an empty slice.
pub fn exact_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1).min(sorted.len()) - 1])
}

/// Exact SLO quantiles of a latency stream: count and nearest-rank
/// p50/p99/p999 (see [`exact_quantile`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// 99.9th percentile (nearest rank).
    pub p999: f64,
}

/// Accumulates a latency stream and answers exact quantile queries.
///
/// The estimator is *exact*: it keeps every sample (the soak workloads
/// produce at most a few hundred thousand latency points, so the memory
/// cost is trivial next to the event heap) and sorts lazily per query.
/// Mergeable: [`QuantileEstimator::absorb`] pools two streams such that
/// the result equals one estimator having observed both.
#[derive(Clone, Debug, Default)]
pub struct QuantileEstimator {
    samples: Vec<f64>,
}

impl QuantileEstimator {
    /// A new, empty estimator.
    pub fn new() -> Self {
        QuantileEstimator::default()
    }

    /// Record one sample.
    pub fn observe(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Record every sample of `values`.
    pub fn observe_all(&mut self, values: &[f64]) {
        self.samples.extend_from_slice(values);
    }

    /// Pool another estimator's samples into this one.
    pub fn absorb(&mut self, other: &QuantileEstimator) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples observed so far.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// True when no sample has been observed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact nearest-rank `q`-quantile of the stream so far; `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile samples must be ordered"));
        exact_quantile(&sorted, q)
    }

    /// Exact p50/p99/p999 summary; `None` when empty.
    pub fn summary(&self) -> Option<SloSummary> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile samples must be ordered"));
        Some(SloSummary {
            count: sorted.len() as u64,
            p50: exact_quantile(&sorted, 0.50)?,
            p99: exact_quantile(&sorted, 0.99)?,
            p999: exact_quantile(&sorted, 0.999)?,
        })
    }
}

/// Quantile summary of a histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// 99th percentile (linear interpolation).
    pub p99: f64,
}

/// A pre-resolved counter slot of a [`MetricsRegistry`], from
/// [`MetricsRegistry::counter_handle`]. Adding through it costs one
/// atomic update: no name lookup, no registry lock. Clones share the
/// slot, and the registry reads the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter (saturating, like
    /// [`MetricsRegistry::counter_add`]).
    pub fn count_add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct RegState {
    counters: BTreeMap<String, Counter>,
    /// Full update timelines `(time, value)`, kept sorted by time, so
    /// time-weighted means are exact and merges are lossless.
    time_weighted: BTreeMap<String, Vec<(SimTime, f64)>>,
    histograms: BTreeMap<String, Vec<f64>>,
}

/// Cloneable, shareable metrics registry. See module docs.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegState>>,
}

impl MetricsRegistry {
    /// A new, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    // ----- counters ------------------------------------------------------

    /// Add `n` to counter `name` (creating it at zero). The key string
    /// is only allocated on a counter's first write; steady-state
    /// increments are a map lookup.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut s = self.inner.lock();
        if let Some(c) = s.counters.get(name) {
            c.count_add(n);
        } else {
            s.counters.insert(name.to_string(), Counter(Arc::new(AtomicU64::new(n))));
        }
    }

    /// The slot of counter `name` (creating it at zero, so it shows in
    /// [`MetricsRegistry::names`] from now on). A hot path that adds to
    /// one counter many times takes the handle once, on its first
    /// write, and skips the per-add name lookup.
    pub fn counter_handle(&self, name: &str) -> Counter {
        self.inner.lock().counters.entry(name.to_string()).or_default().clone()
    }

    /// Increment counter `name` by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Current value of counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).map_or(0, Counter::get)
    }

    // ----- time-weighted gauges ------------------------------------------

    /// Record that time-weighted gauge `name` changed to `value` at
    /// virtual time `now`. Updates must be fed in non-decreasing time
    /// order per registry (the simulator's clock guarantees this);
    /// out-of-order updates are re-sorted on read.
    pub fn twg_set(&self, name: &str, now: SimTime, value: f64) {
        fn push(series: &mut Vec<(SimTime, f64)>, now: SimTime, value: f64) {
            match series.last() {
                Some(&(t, _)) if t > now => {
                    // Rare out-of-order write: insert at the right
                    // position to keep the timeline sorted.
                    let ix = series.partition_point(|&(t, _)| t <= now);
                    series.insert(ix, (now, value));
                }
                _ => series.push((now, value)),
            }
        }
        let mut s = self.inner.lock();
        // Key allocation only on the series' first update.
        if let Some(series) = s.time_weighted.get_mut(name) {
            push(series, now, value);
            return;
        }
        push(s.time_weighted.entry(name.to_string()).or_default(), now, value);
    }

    /// Time-weighted mean of gauge `name` over `[first_update, until]`:
    /// each value is weighted by how long it was in effect. Returns
    /// `None` if the gauge has no updates or the window is empty.
    pub fn twg_mean(&self, name: &str, until: SimTime) -> Option<f64> {
        let s = self.inner.lock();
        let series = s.time_weighted.get(name)?;
        let first = series.first()?.0;
        let window = until.since(first);
        if window.is_zero() {
            return None;
        }
        let mut integral = 0.0;
        for (i, &(t, v)) in series.iter().enumerate() {
            if t >= until {
                break;
            }
            let end = series.get(i + 1).map_or(until, |&(t2, _)| t2.min(until));
            integral += v * end.since(t).as_secs_f64();
        }
        Some(integral / window.as_secs_f64())
    }

    /// The raw update timeline of time-weighted gauge `name`.
    pub fn twg_updates(&self, name: &str) -> Vec<(SimTime, f64)> {
        self.inner.lock().time_weighted.get(name).cloned().unwrap_or_default()
    }

    // ----- histograms ----------------------------------------------------

    /// Record one sample into histogram `name`. The key string is only
    /// allocated on the histogram's first sample.
    pub fn observe(&self, name: &str, value: f64) {
        let mut s = self.inner.lock();
        if let Some(samples) = s.histograms.get_mut(name) {
            samples.push(value);
            return;
        }
        s.histograms.entry(name.to_string()).or_default().push(value);
    }

    /// Record a virtual duration (in seconds) into histogram `name`.
    pub fn observe_duration(&self, name: &str, d: SimDuration) {
        self.observe(name, d.as_secs_f64());
    }

    /// Quantile summary of histogram `name`; `None` when the histogram
    /// is missing or empty.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        let s = self.inner.lock();
        let samples = s.histograms.get(name)?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram samples must be ordered"));
        let count = sorted.len() as u64;
        let sum: f64 = sorted.iter().sum();
        Some(HistogramSummary {
            count,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sum / count as f64,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
        })
    }

    /// Raw samples of histogram `name` (recording order).
    pub fn histogram_samples(&self, name: &str) -> Vec<f64> {
        self.inner.lock().histograms.get(name).cloned().unwrap_or_default()
    }

    // ----- introspection & merge -----------------------------------------

    /// Names of all metrics, grouped as (counters, time-weighted
    /// gauges, histograms).
    pub fn names(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        let s = self.inner.lock();
        (
            s.counters.keys().cloned().collect(),
            s.time_weighted.keys().cloned().collect(),
            s.histograms.keys().cloned().collect(),
        )
    }

    /// Fold `other`'s data into `self`, equivalent to having recorded
    /// both streams into one registry: counters add, histograms pool,
    /// time-weighted timelines merge sorted by time. `other` is left
    /// untouched.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let o = other.inner.lock();
        let mut s = self.inner.lock();
        for (k, v) in &o.counters {
            s.counters.entry(k.clone()).or_default().count_add(v.get());
        }
        for (k, updates) in &o.time_weighted {
            let series = s.time_weighted.entry(k.clone()).or_default();
            series.extend(updates.iter().copied());
            series.sort_by_key(|&(t, _)| t);
        }
        for (k, samples) in &o.histograms {
            s.histograms.entry(k.clone()).or_default().extend(samples.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.counter_inc("x");
        m.counter_add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn counter_handle_shares_the_registry_slot() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 2);
        let h = m.counter_handle("c");
        h.count_add(3);
        m.counter_inc("c");
        assert_eq!((m.counter("c"), h.get()), (6, 6));
        // A handle to a new name creates it at zero, visible to names().
        let z = m.counter_handle("z");
        assert_eq!(m.names().0, vec!["c".to_string(), "z".to_string()]);
        z.count_add(u64::MAX);
        z.count_add(1);
        assert_eq!(m.counter("z"), u64::MAX, "saturates like counter_add");
        // Merging reads through the handles and leaves them attached.
        let other = MetricsRegistry::new();
        other.merge_from(&m);
        h.count_add(1);
        assert_eq!((other.counter("c"), m.counter("c")), (6, 7));
    }

    #[test]
    fn twg_integrates_over_virtual_time() {
        let m = MetricsRegistry::new();
        // 0 for 10s, then 4 for 10s, then 2 for 20s → mean over 40s = 2.0
        m.twg_set("util", t(0), 0.0);
        m.twg_set("util", t(10), 4.0);
        m.twg_set("util", t(20), 2.0);
        let mean = m.twg_mean("util", t(40)).unwrap();
        assert!((mean - 2.0).abs() < 1e-12, "(0*10 + 4*10 + 2*20)/40 = 2.0, got {mean}");
        // Truncated window: only the first value is in effect.
        let early = m.twg_mean("util", t(10)).unwrap();
        assert_eq!(early, 0.0);
        // Empty window.
        assert_eq!(m.twg_mean("util", t(0)), None);
        assert_eq!(m.twg_mean("missing", t(1)), None);
    }

    #[test]
    fn twg_out_of_order_updates_are_resorted() {
        let m = MetricsRegistry::new();
        m.twg_set("g", t(10), 1.0);
        m.twg_set("g", t(0), 5.0);
        let updates = m.twg_updates("g");
        assert_eq!(updates, vec![(t(0), 5.0), (t(10), 1.0)]);
    }

    #[test]
    fn histogram_quantile_edges() {
        let m = MetricsRegistry::new();
        // Empty / missing.
        assert!(m.histogram("h").is_none());
        // Single sample: every quantile is that sample.
        m.observe("h", 3.0);
        let s = m.histogram("h").unwrap();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p95, s.p99), (1, 3.0, 3.0, 3.0, 3.0, 3.0));
        // Ties: all-equal samples keep every quantile at the tied value.
        let m2 = MetricsRegistry::new();
        for _ in 0..10 {
            m2.observe("h", 2.5);
        }
        let s2 = m2.histogram("h").unwrap();
        assert_eq!((s2.p50, s2.p95, s2.p99, s2.mean), (2.5, 2.5, 2.5, 2.5));
        // Unsorted input is sorted before quantiles.
        let m3 = MetricsRegistry::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            m3.observe("h", v);
        }
        let s3 = m3.histogram("h").unwrap();
        assert_eq!(s3.p50, 3.0);
        assert_eq!((s3.min, s3.max), (1.0, 5.0));
    }

    #[test]
    fn exact_quantiles_are_nearest_rank() {
        // Empty stream: no quantiles.
        assert_eq!(exact_quantile(&[], 0.5), None);
        let e = QuantileEstimator::new();
        assert!(e.is_empty());
        assert_eq!(e.summary(), None);
        // Single sample: every quantile is that sample.
        let mut e = QuantileEstimator::new();
        e.observe(7.0);
        let s = e.summary().unwrap();
        assert_eq!((s.count, s.p50, s.p99, s.p999), (1, 7.0, 7.0, 7.0));
        // 1..=1000: nearest-rank p50 = 500, p99 = 990, p999 = 999 — all
        // observed samples, no interpolation.
        let mut e = QuantileEstimator::new();
        for v in (1..=1000).rev() {
            e.observe(v as f64);
        }
        let s = e.summary().unwrap();
        assert_eq!((s.p50, s.p99, s.p999), (500.0, 990.0, 999.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn estimator_absorb_pools_streams() {
        let mut a = QuantileEstimator::new();
        let mut b = QuantileEstimator::new();
        a.observe_all(&[1.0, 2.0]);
        b.observe_all(&[3.0, 4.0]);
        a.absorb(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.quantile(1.0), Some(4.0));
        assert_eq!(b.count(), 2, "absorb leaves the source untouched");
    }

    #[test]
    fn observe_duration_records_seconds() {
        let m = MetricsRegistry::new();
        m.observe_duration("d", SimDuration::from_millis(1500));
        assert_eq!(m.histogram_samples("d"), vec![1.5]);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter_inc("c");
        assert_eq!(m2.counter("c"), 1);
    }

    #[test]
    fn merge_sums_counters_and_pools_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter_add("c", 2);
        b.counter_add("c", 3);
        a.observe("h", 1.0);
        b.observe("h", 9.0);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.histogram("h").unwrap().count, 2);
        // b untouched
        assert_eq!(b.counter("c"), 3);
    }

    #[test]
    fn merge_with_self_is_a_no_op() {
        let a = MetricsRegistry::new();
        a.counter_add("c", 2);
        let a2 = a.clone();
        a.merge_from(&a2);
        assert_eq!(a.counter("c"), 2);
    }
}
