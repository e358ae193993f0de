//! The live quality window: a shareable, thread-safe wrapper over
//! [`dmf_eval::window::RollingAuc`], plus the staleness clock.
//!
//! Instrumented surfaces record `(measurement class, raw score)`
//! pairs as they observe them — the agent when a probe reply arrives
//! (scored against its coordinates *before* applying the update), the
//! service when an `Update` request carries ground truth. The health
//! layer then reads the window's AUC as the live quality signal.
//! Because the window is the exact `RollingAuc` the offline
//! evaluation uses, the live gauge and an offline windowed AUC over
//! the same pair stream agree bit-for-bit — the property the
//! live-vs-offline agreement test pins.
//!
//! Every applied update records a pair, so the time of the last
//! record is the time of the last applied update: the window is also
//! the staleness clock. A window shared by many writers (a fleet's
//! agents) therefore reports the most recent update anywhere.
//!
//! Recording takes a mutex, not an atomic — quality pairs arrive at
//! measurement cadence (per probe round / per update request), orders
//! of magnitude below the counter hot paths, and the guarded work is
//! a ring-slot write and a clock stamp.

use crate::health::HealthSignals;
use dmf_eval::window::RollingAuc;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The ring and the time of its last record, under one lock.
#[derive(Debug)]
struct Window {
    ring: RollingAuc,
    /// When the last pair was recorded; `None` before the first.
    last_record: Option<Instant>,
}

/// A shared live quality window. Clone-free by design: share it via
/// `Arc<LiveQuality>`.
#[derive(Debug)]
pub struct LiveQuality {
    window: Mutex<Window>,
}

impl LiveQuality {
    /// An empty window over the `capacity` most recent pairs.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (same contract as
    /// [`RollingAuc::new`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            window: Mutex::new(Window {
                ring: RollingAuc::new(capacity),
                last_record: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock().expect("quality lock")
    }

    /// Records one observed pair: was the link actually in the
    /// positive class, and what raw score did the model give it.
    /// Stamps the staleness clock.
    pub fn record(&self, positive: bool, score: f64) {
        let mut w = self.lock();
        w.ring.record(positive, score);
        w.last_record = Some(Instant::now());
    }

    /// The health signals this window observes, read under one lock:
    /// fill, rolling AUC, and staleness as seconds since the last
    /// record (`None` before the first). `rejection_rate` comes from
    /// the caller's admission control, if it has any.
    pub fn signals(&self, rejection_rate: Option<f64>) -> HealthSignals {
        let w = self.lock();
        HealthSignals {
            quality_samples: w.ring.len(),
            rolling_auc: w.ring.auc(),
            staleness_s: w.last_record.map(|t| t.elapsed().as_secs_f64()),
            rejection_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_eval::window::window_stats;
    use dmf_eval::ScoredLabel;
    use std::sync::Arc;

    /// The window's fill and AUC, the two signals the ring feeds.
    fn fill_and_auc(live: &LiveQuality) -> (usize, Option<u64>) {
        let s = live.signals(None);
        (s.quality_samples, s.rolling_auc.map(f64::to_bits))
    }

    #[test]
    fn matches_the_underlying_rolling_window_exactly() {
        let stream = [
            (true, 0.9),
            (false, 0.4),
            (true, 0.6),
            (false, -0.2),
            (true, -0.5),
        ];
        let live = LiveQuality::new(4);
        let mut offline = RollingAuc::new(4);
        for &(p, s) in &stream {
            live.record(p, s);
            offline.record(p, s);
        }
        // Bit for bit, and only the 4 most recent pairs count.
        assert_eq!(fill_and_auc(&live), (4, offline.auc().map(f64::to_bits)));
    }

    #[test]
    fn full_window_equals_offline_batch_stats() {
        let stream = [(true, 1.0), (false, 0.5), (true, 0.8), (false, -0.1)];
        let live = LiveQuality::new(stream.len());
        for &(p, s) in &stream {
            live.record(p, s);
        }
        let batch: Vec<ScoredLabel> = stream
            .iter()
            .map(|&(positive, score)| ScoredLabel { positive, score })
            .collect();
        let offline = window_stats(&batch).expect("mixed window").auc;
        assert_eq!(fill_and_auc(&live), (4, Some(offline.to_bits())));
    }

    #[test]
    fn shared_across_threads() {
        let live = Arc::new(LiveQuality::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        live.record(i % 2 == 0, (t * 8 + i) as f64 - 16.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        let (fill, auc) = fill_and_auc(&live);
        assert_eq!(fill, 32);
        assert!(auc.is_some());
    }

    #[test]
    fn records_stamp_the_staleness_clock() {
        let live = LiveQuality::new(8);
        let cold = live.signals(None);
        assert_eq!(cold, HealthSignals::default());
        live.record(true, 1.0);
        live.record(false, -1.0);
        let s = live.signals(Some(0.25));
        assert_eq!(s.quality_samples, 2);
        assert_eq!(s.rolling_auc, Some(1.0));
        assert!(s.staleness_s.expect("recorded") >= 0.0);
        assert_eq!(s.rejection_rate, Some(0.25));
    }
}
