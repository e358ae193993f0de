//! Shared training/evaluation plumbing for the experiment modules.
//!
//! The paper's protocol differs per dataset: "the static measurements
//! in Meridian and HP-S3 are used in random order, whereas the dynamic
//! measurements in Harvard are used in time order according to the
//! timestamps" (§6.1). [`BundleTrainer`] implements that dispatch so
//! every experiment module trains each dataset the way the paper did.

use crate::experiments::scale::Scale;
use crate::experiments::trio::{DatasetBundle, Trio};
use dmf_core::provider::ClassLabelProvider;
use dmf_core::{DmfsgdConfig, Loss, Session, SessionBuilder};
use dmf_datasets::{ClassMatrix, Dataset, DynamicTrace};
use dmf_eval::collect_scores;
use dmf_eval::roc::auc;
use dmf_simnet::errors::ErrorModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds the paper-default configuration for a dataset with neighbor
/// count `k`, seeded deterministically.
pub fn default_config(k: usize, seed: u64) -> DmfsgdConfig {
    let mut cfg = DmfsgdConfig::paper_defaults().with_k(k);
    cfg.seed = seed;
    cfg
}

/// Trains a class-based DMFSGD session on the labels of `class` for
/// `ticks` measurements (the random-order protocol).
pub fn train_class(class: &ClassMatrix, config: DmfsgdConfig, ticks: usize) -> Session {
    let mut provider = ClassLabelProvider::new(class.clone());
    let mut session = SessionBuilder::from_config(config)
        .nodes(class.len())
        .build()
        .expect("experiment config is valid");
    session
        .run(ticks, &mut provider)
        .expect("provider covers the session");
    session
}

/// Replays a dynamic trace in time order, classifying each measurement
/// at `tau` and passing it through the given error models in sequence
/// — at measurement time, which is where the paper's errors physically
/// originate (flaky tools, malicious targets, bursts). Returns the
/// trained system and the fraction of labels corrupted.
pub fn train_trace_class(
    trace: &DynamicTrace,
    tau: f64,
    config: DmfsgdConfig,
    errors: &[ErrorModel],
    error_seed: u64,
) -> (Session, f64) {
    let mut session = SessionBuilder::from_config(config)
        .nodes(trace.nodes)
        .build()
        .expect("experiment config is valid");
    let mut rng = ChaCha8Rng::seed_from_u64(error_seed);
    let mut corrupted = 0usize;
    for m in &trace.measurements {
        let clean = trace.metric.classify(m.value, tau);
        let x = errors.iter().fold(clean, |x, model| {
            model.corrupt(x, m.value, tau, trace.metric, &mut rng)
        });
        if x != clean {
            corrupted += 1;
        }
        session
            .apply_measurement(m.from, m.to, x, trace.metric)
            .expect("trace pairs are in range");
    }
    let level = corrupted as f64 / trace.measurements.len().max(1) as f64;
    (session, level)
}

/// Trains a quantity-based (regression) system on raw values in random
/// order.
pub fn train_quantity(dataset: &Dataset, k: usize, seed: u64, ticks: usize) -> Session {
    let scale = dataset.median();
    let mut cfg = default_config(k, seed).quantity(scale);
    cfg.sgd.loss = Loss::L2;
    let mut provider = dmf_core::provider::QuantityProvider::new(dataset.clone(), scale)
        .expect("a dataset median is a valid scale");
    let mut session = SessionBuilder::from_config(cfg)
        .nodes(dataset.len())
        .build()
        .expect("experiment config is valid");
    session
        .run(ticks, &mut provider)
        .expect("provider covers the session");
    session
}

/// Trains a quantity-based system by trace replay (Harvard regression).
///
/// Raw application-level traces contain congestion spikes several
/// times above the pair median; the unbounded L2 gradient would make
/// plain SGD diverge on them (the reason the paper's regression
/// comparator works on stable values). Spikes are clipped at 10× the
/// value scale — far above any median — and the step is halved, which
/// keeps the replay stable without affecting the ranking the
/// peer-selection experiment consumes.
pub fn train_quantity_trace(
    trace: &DynamicTrace,
    value_scale: f64,
    k: usize,
    seed: u64,
) -> Session {
    let mut cfg = default_config(k, seed).quantity(value_scale);
    cfg.sgd.loss = Loss::L2;
    cfg.sgd.eta = 0.05;
    let mut clipped = trace.clone();
    for m in &mut clipped.measurements {
        m.value = m.value.min(value_scale * 10.0);
    }
    let mut session = SessionBuilder::from_config(cfg)
        .nodes(trace.nodes)
        .build()
        .expect("experiment config is valid");
    session
        .run_trace(&clipped)
        .expect("trace matches the session");
    session
}

/// Paper-protocol trainer: trace replay for Harvard, random-order
/// label training for the static datasets.
pub struct BundleTrainer<'a> {
    /// The dataset trio (holds the Harvard trace).
    pub trio: &'a Trio,
    /// The scale (tick budgets).
    pub scale: &'a Scale,
}

impl BundleTrainer<'_> {
    /// Trains on `class` (whose labels may already carry injected
    /// errors for the static datasets). For Harvard, the trace is
    /// replayed at `class.tau` with `trace_errors` applied per
    /// measurement instead.
    pub fn train(
        &self,
        bundle: &DatasetBundle,
        class: &ClassMatrix,
        config: DmfsgdConfig,
        trace_errors: &[ErrorModel],
        error_seed: u64,
    ) -> Session {
        if bundle.name == "Harvard" {
            let (system, _) = train_trace_class(
                &self.trio.harvard_trace,
                class.tau,
                config,
                trace_errors,
                error_seed,
            );
            system
        } else {
            let ticks = self.scale.ticks(bundle.dataset.len(), config.k);
            train_class(class, config, ticks)
        }
    }
}

/// AUC of a trained session against reference labels.
pub fn auc_of(session: &Session, reference: &ClassMatrix) -> f64 {
    auc(&collect_scores(reference, &session.predicted_scores()))
}

/// Materializes the session's predicted quantities (for regression
/// peer selection): raw score × value scale.
pub fn predicted_quantities(session: &Session) -> dmf_linalg::Matrix {
    let n = session.len();
    dmf_linalg::Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            session.predict(i, j).expect("all slots alive")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::PredictionMode;
    use dmf_datasets::rtt::meridian_like;

    /// True when the session is in quantity mode (sanity check helper).
    fn is_quantity(session: &Session) -> bool {
        matches!(session.config().mode, PredictionMode::Quantity { .. })
    }

    #[test]
    fn train_and_evaluate_quickly() {
        let d = meridian_like(50, 1);
        let cm = d.classify(d.median());
        let system = train_class(&cm, default_config(10, 1), 50 * 10 * 20);
        let a = auc_of(&system, &cm);
        assert!(a > 0.85, "default training AUC {a}");
    }

    #[test]
    fn quantity_training_flagged() {
        let d = meridian_like(40, 2);
        let system = train_quantity(&d, 10, 2, 40 * 10 * 10);
        assert!(is_quantity(&system));
        let q = predicted_quantities(&system);
        assert_eq!(q.shape(), (40, 40));
    }

    #[test]
    fn trace_training_with_errors_reports_level() {
        let scale = Scale::quick();
        let trio = Trio::build(&scale, 5);
        let tau = trio.harvard.dataset.median();
        let (_, level) = train_trace_class(
            &trio.harvard_trace,
            tau,
            default_config(10, 5),
            &[ErrorModel::FlipRandom { fraction: 0.10 }],
            9,
        );
        assert!((level - 0.10).abs() < 0.02, "achieved error level {level}");
    }

    #[test]
    fn bundle_trainer_dispatches_both_protocols() {
        let scale = Scale::quick();
        let trio = Trio::build(&scale, 6);
        let trainer = BundleTrainer {
            trio: &trio,
            scale: &scale,
        };
        for bundle in trio.bundles() {
            let class = bundle.dataset.classify(bundle.dataset.median());
            let system = trainer.train(bundle, &class, default_config(bundle.k, 6), &[], 0);
            let a = auc_of(&system, &class);
            assert!(a > 0.8, "{}: AUC {a}", bundle.name);
        }
    }
}
