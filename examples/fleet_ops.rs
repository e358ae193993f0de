//! The operational arc of a live UDP fleet, narrated.
//!
//! A 64-agent fleet runs over real localhost sockets under the lossy
//! fault profile while we watch it the way an operator would — live
//! metrics and a typed health verdict, not log grep. Then the story
//! the health machinery exists for: a total loss storm stalls every
//! coordinate, staleness climbs past the policy limit and the fleet
//! reports `Degraded { StaleCoordinates }`; the storm clears, updates
//! resume, and the verdict recovers on its own (health is recomputed
//! from live signals, never latched). Finally the still-running fleet
//! is checkpointed stop-the-world into the same bit-exact `Snapshot`
//! the `Session` API restores from.
//!
//! Run: `cargo run --release --example fleet_ops`
//! The full operator contract is documented in `docs/operations.md`.

use dmfsgd::agent::{ClusterConfig, Fleet, STAT_METRICS};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::ops::{Health, HealthPolicy, SampleValue};
use dmfsgd::proto::{FaultSpec, WireVersion};
use dmfsgd::{DmfsgdError, Session, Snapshot};
use std::time::{Duration, Instant};

const N: usize = 64;
const SEED: u64 = 9;

/// Reads one summed agent counter out of the fleet-wide snapshot
/// (samples are sorted by name, so look up by name).
fn counter(fleet: &Fleet, name: &str) -> u64 {
    assert!(STAT_METRICS.iter().any(|m| m.name == name));
    let snap = fleet.metrics();
    let sample = snap
        .metrics
        .iter()
        .find(|m| m.name == name)
        .expect("an exported sample");
    match sample.value {
        SampleValue::Counter(v) => v,
        ref other => panic!("{name} is a counter, got {other:?}"),
    }
}

fn report(fleet: &Fleet, tag: &str) {
    let s = fleet.signals();
    println!(
        "  [{tag}] running {:2}/{:2}  updates {:6}  gaps {:4}  auc {}  staleness {}  -> {:?}",
        fleet.running_count(),
        fleet.len(),
        counter(fleet, "dmf_agent_updates_applied_total"),
        counter(fleet, "dmf_agent_gaps_detected_total"),
        s.rolling_auc.map_or("  n/a".into(), |a| format!("{a:.3}")),
        s.staleness_s
            .map_or("  n/a".into(), |t| format!("{t:5.2}s")),
        fleet.health(),
    );
}

/// Polls until the fleet's health code matches, or panics after the
/// deadline — the transitions below all happen within a few seconds.
fn wait_for_health(fleet: &Fleet, code: u8, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while fleet.health().code() != code {
        assert!(Instant::now() < deadline, "fleet never became {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
    report(fleet, what);
}

fn main() -> Result<(), DmfsgdError> {
    let dataset = meridian_like(N, SEED);
    let tau = dataset.median();
    let classes = dataset.classify(tau);

    println!("launching {N} UDP agents under FaultSpec::lossy() (20% drop + corruption)...");
    let mut fleet = Fleet::launch(
        dataset,
        tau,
        ClusterConfig {
            probe_interval: Duration::from_millis(2),
            wire: WireVersion::V2,
            faults: Some(FaultSpec::lossy()),
            ..ClusterConfig::default()
        },
    )?;
    fleet.set_health_policy(HealthPolicy {
        min_quality_samples: 50,
        auc_floor: Some(0.6),
        staleness_limit_s: Some(1.0),
        rejection_rate_limit: None,
    });

    println!("\nwarm-up: live metrics every 400 ms (Unready until the quality window fills)");
    for round in 0..5 {
        std::thread::sleep(Duration::from_millis(400));
        report(&fleet, &format!("round {round}"));
    }
    wait_for_health(&fleet, 0, "healthy");

    println!("\nloss storm: drop probability 1.0 on every socket — coordinates go stale");
    fleet.set_faults(Some(FaultSpec {
        drop: 1.0,
        ..FaultSpec::default()
    }));
    fleet.restart_all()?;
    wait_for_health(&fleet, 1, "degraded");
    if let Health::Degraded { reasons } = fleet.health() {
        for r in &reasons {
            println!("    reason: {r:?}");
        }
    }

    println!("\nstorm clears: back to the lossy profile — recovery needs no reset");
    fleet.set_faults(Some(FaultSpec::lossy()));
    fleet.restart_all()?;
    wait_for_health(&fleet, 0, "recovered");

    println!("\nlive checkpoint (stop-the-world; ports and counters survive)...");
    let snap = fleet.checkpoint()?;
    let restored = Session::restore(&Snapshot::from_json(&snap.to_json())?)?;
    let offline = auc(&collect_scores(&classes, &restored.predicted_scores()));
    println!(
        "  snapshot restores into a Session: offline AUC {offline:.3}, live gauge {}",
        fleet
            .signals()
            .rolling_auc
            .map_or("n/a".into(), |a| format!("{a:.3}")),
    );

    let outcome = fleet.shutdown()?;
    println!(
        "\nshutdown: {} total updates across the fleet's lifetime",
        outcome.total_updates()
    );
    Ok(())
}
