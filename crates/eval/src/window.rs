//! Windowed and rolling quality evaluation.
//!
//! The classic criteria ([`crate::roc`], [`crate::confusion`]) score a
//! predictor once, over everything it has seen — the right lens for
//! the paper's stationary matrices, and a blind one for non-stationary
//! scenarios where quality *during* a congestion epoch or *after* a
//! partition heals is the whole question. This module provides the
//! per-epoch lens:
//!
//! * [`window_stats`] — AUC + sign accuracy of one batch of scored
//!   labels (one evaluation window), tolerant of single-class windows
//!   (AUC is undefined there, so the result is `None` instead of a
//!   panic — a window of a quiet scenario can easily be all-good);
//! * [`RollingAuc`] — a fixed-capacity ring of the most recent scored
//!   labels for streaming consumers (trace replay, live agents) that
//!   cannot batch by simulated time. Pushes are O(1); each quality
//!   query recomputes over the current window (O(w log w) for a
//!   window of `w`), so query at window cadence, not per sample.
//!
//! Both report through [`WindowStats`], the per-window record the
//! scenario suite serializes into `QUALITY.json`.

use crate::roc::auc_mann_whitney;
use crate::ScoredLabel;
use serde::{Deserialize, Serialize};

/// Quality of one evaluation window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Area under the ROC curve over the window's samples.
    pub auc: f64,
    /// Sign accuracy: fraction of samples where `score >= 0` matches
    /// the label.
    pub accuracy: f64,
    /// Positive ("good") samples in the window.
    pub positives: usize,
    /// Negative ("bad") samples in the window.
    pub negatives: usize,
}

/// Sign accuracy of a batch: `score >= 0` predicts the positive
/// class. `None` for an empty batch.
fn sign_accuracy(samples: &[ScoredLabel]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let ok = samples
        .iter()
        .filter(|s| (s.score >= 0.0) == s.positive)
        .count();
    Some(ok as f64 / samples.len() as f64)
}

/// Evaluates one window of scored labels. Returns `None` when either
/// class is absent (AUC is undefined for a single-class window).
pub fn window_stats(samples: &[ScoredLabel]) -> Option<WindowStats> {
    let positives = samples.iter().filter(|s| s.positive).count();
    let negatives = samples.len() - positives;
    if positives == 0 || negatives == 0 {
        return None;
    }
    Some(WindowStats {
        auc: auc_mann_whitney(samples),
        accuracy: sign_accuracy(samples).expect("non-empty window"),
        positives,
        negatives,
    })
}

/// A rolling window over the most recent scored labels: a
/// fixed-capacity ring buffer with AUC/accuracy queries over its
/// current content. Queries recompute from the ring (`O(w log w)` per
/// call, not incremental) — intended usage is many pushes per query.
///
/// Every quality query is order-invariant (AUC and accuracy are set
/// statistics), so a full ring containing one period of a periodic
/// stream reports exactly the stream's global quality — the property
/// the `dmf-eval` proptests pin.
#[derive(Clone, Debug)]
pub struct RollingAuc {
    capacity: usize,
    /// Ring storage; once full, `next` is the oldest slot.
    buf: Vec<ScoredLabel>,
    next: usize,
}

impl RollingAuc {
    /// An empty window keeping the `capacity` most recent samples.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window needs capacity >= 1");
        Self {
            capacity,
            buf: Vec::with_capacity(capacity),
            next: 0,
        }
    }

    /// Maximum samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no samples have been pushed (or since the last
    /// [`clear`](Self::clear)).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: ScoredLabel) {
        if self.buf.len() < self.capacity {
            self.buf.push(sample);
        } else {
            self.buf[self.next] = sample;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Records a labeled score (convenience over
    /// [`push`](Self::push)).
    pub fn record(&mut self, positive: bool, score: f64) {
        self.push(ScoredLabel { positive, score });
    }

    /// Drops every sample, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }

    /// AUC over the current window; `None` while the window holds
    /// only one class.
    pub fn auc(&self) -> Option<f64> {
        self.stats().map(|s| s.auc)
    }

    /// Sign accuracy over the current window; `None` while empty.
    pub fn accuracy(&self) -> Option<f64> {
        sign_accuracy(&self.buf)
    }

    /// Full window statistics; `None` while the window holds only one
    /// class.
    pub fn stats(&self) -> Option<WindowStats> {
        window_stats(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(positive: bool, score: f64) -> ScoredLabel {
        ScoredLabel { positive, score }
    }

    #[test]
    fn window_stats_match_roc_auc() {
        let samples = vec![s(true, 0.9), s(false, 0.2), s(true, -0.1), s(false, -0.8)];
        let stats = window_stats(&samples).expect("both classes present");
        assert_eq!(stats.auc, auc_mann_whitney(&samples));
        assert_eq!(stats.accuracy, 0.5); // 0.2 negative and −0.1 positive missed
        assert_eq!((stats.positives, stats.negatives), (2, 2));
    }

    #[test]
    fn single_class_window_is_none_not_panic() {
        assert_eq!(window_stats(&[s(true, 1.0), s(true, 2.0)]), None);
        assert_eq!(window_stats(&[]), None);
        assert_eq!(sign_accuracy(&[]), None);
        // Accuracy alone is still defined for one class.
        assert_eq!(sign_accuracy(&[s(true, 1.0), s(true, -1.0)]), Some(0.5));
    }

    #[test]
    fn rolling_fills_then_evicts_oldest() {
        let mut w = RollingAuc::new(3);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
        w.record(true, 1.0);
        assert_eq!(w.auc(), None, "one class only");
        assert_eq!(w.accuracy(), Some(1.0));
        w.record(false, -1.0);
        w.record(true, 2.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.auc(), Some(1.0));
        // Push a 4th: evicts the first (true, 1.0). A perfect negative
        // keeps AUC at 1; then flood with inverted samples.
        w.record(false, -2.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.auc(), Some(1.0));
        for _ in 0..3 {
            w.record(false, 5.0);
            w.record(true, -5.0);
        }
        assert_eq!(w.auc(), Some(0.0), "window forgot the good old days");
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.accuracy(), None);
    }

    #[test]
    fn rolling_equals_global_when_capacity_covers_stream() {
        let stream = vec![
            s(true, 0.9),
            s(false, 0.8),
            s(true, 0.7),
            s(false, 0.3),
            s(true, -0.2),
        ];
        let mut w = RollingAuc::new(stream.len());
        for &x in &stream {
            w.push(x);
        }
        let global = window_stats(&stream).expect("mixed stream");
        assert_eq!(w.stats(), Some(global));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        RollingAuc::new(0);
    }
}
