//! Typed metric handles: the write side of the observability layer.
//!
//! An exporter owns its handles as plain fields (a counter or gauge is
//! one atomic, a histogram a fixed row of them), hot paths update them
//! with relaxed atomic operations, and the exporter reads them back at
//! scrape time into [`MetricSample`](crate::MetricSample)s named by its
//! own `const` table of (name, help, unit) rows. No lock is taken on
//! either side, so instrumentation is safe to leave enabled on the
//! training and serving hot paths.
//!
//! Three metric types cover the fleet surface, mirroring the usual
//! exposition vocabulary:
//!
//! * [`Counter`] — a monotonically increasing `u64` (events, bytes).
//! * [`Gauge`] — an `f64` that goes up and down (admission-window
//!   depth).
//! * [`Histogram`] — fixed integer bucket bounds chosen at
//!   construction (latency in microseconds); observation is a bucket
//!   scan over ≤ a few dozen bounds plus two atomic adds.

use crate::export::SampleValue;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge (bit-cast through an atomic `u64`; starts at
/// `0.0`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores a value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over non-negative integer values (the
/// service uses microseconds). `bounds` are inclusive upper bucket
/// bounds in strictly increasing order; one implicit overflow bucket
/// catches everything larger.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    /// One slot per bound plus the overflow slot.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram over the given bucket bounds.
    ///
    /// # Panics
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must strictly increase"
        );
        Self {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The histogram's state as a snapshot value.
    pub fn value(&self) -> SampleValue {
        SampleValue::Histogram {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_accumulate() {
        let c = Counter::default();
        let g = Gauge::default();
        let h = Histogram::new(&[10, 100]);
        c.add(3);
        c.inc();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        for v in [5, 50, 5000] {
            h.observe(v);
        }
        assert_eq!(c.get(), 4);
        assert_eq!(g.get(), 2.5);
        assert_eq!(
            h.value(),
            SampleValue::Histogram {
                bounds: vec![10, 100],
                counts: vec![1, 1, 1],
                sum: 5055,
            }
        );
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn histogram_bounds_must_increase() {
        let _ = Histogram::new(&[10, 10]);
    }
}
