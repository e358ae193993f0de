//! Serializable checkpoints of a [`Session`].
//!
//! A [`Snapshot`] pins the *complete* deterministic state of a
//! session: configuration, every node's coordinates, the neighbor
//! sets, the membership bookkeeping (alive order and departed slots —
//! both decide which node a given RNG draw selects) and the exact
//! ChaCha keystream position. Restoring and continuing is therefore
//! bit-identical to never having stopped, which is what makes warm
//! restarts and checkpointed long runs trustworthy: a resumed
//! experiment reproduces the uninterrupted one to the last bit (the
//! property tests pin this).
//!
//! Snapshots serialize to JSON ([`Snapshot::to_json`] /
//! [`Snapshot::from_json`]); floating-point fields use
//! shortest-roundtrip printing, so the JSON detour is lossless.
//! [`Session::restore`] re-validates everything — a corrupt or
//! hand-edited snapshot yields a [`SnapshotError`], never a panic.

use crate::error::{DmfsgdError, NodeId, SnapshotError};
use crate::node::DmfsgdNode;
use crate::session::Session;
use crate::DmfsgdConfig;
use dmf_simnet::NeighborSets;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Bump when the snapshot layout changes incompatibly.
const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Exact ChaCha8 generator state. The 64-bit block counter is split
/// into 32-bit halves so the JSON number representation (f64) stays
/// exact for every possible value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RngState {
    key: [u32; 8],
    counter_hi: u32,
    counter_lo: u32,
    index: u32,
}

impl RngState {
    fn capture(rng: &ChaCha8Rng) -> Self {
        let (key, counter, index) = rng.dump_state();
        Self {
            key,
            counter_hi: (counter >> 32) as u32,
            counter_lo: counter as u32,
            index: index as u32,
        }
    }

    fn rebuild(&self) -> Result<ChaCha8Rng, SnapshotError> {
        let counter = (u64::from(self.counter_hi) << 32) | u64::from(self.counter_lo);
        ChaCha8Rng::from_state(self.key, counter, self.index as usize).ok_or_else(|| {
            SnapshotError::Corrupt(format!("impossible RNG word index {}", self.index))
        })
    }
}

/// A complete, serializable checkpoint of a [`Session`].
///
/// Obtain one with [`Session::snapshot`]; turn it back into a live
/// session with [`Session::restore`]. The JSON form is stable across
/// process restarts (schema-versioned).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    schema_version: u32,
    config: DmfsgdConfig,
    tau: Option<f64>,
    nodes: Vec<DmfsgdNode>,
    neighbors: NeighborSets,
    alive: Vec<NodeId>,
    free: Vec<NodeId>,
    rng: RngState,
    measurements: usize,
}

impl Snapshot {
    /// Captures the full deterministic state of `session`.
    pub(crate) fn capture(session: &Session) -> Self {
        Self {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            config: session.config,
            tau: session.tau,
            nodes: session.nodes.clone(),
            neighbors: session.neighbors.clone(),
            alive: session.alive_list.clone(),
            free: session.free.clone(),
            rng: RngState::capture(&session.rng),
            measurements: session.measurements,
        }
    }

    /// The schema version this snapshot was written with.
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// The configuration frozen into this snapshot.
    pub fn config(&self) -> &DmfsgdConfig {
        &self.config
    }

    /// Number of node slots captured.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Serializes to compact JSON (lossless: floats print in
    /// shortest-roundtrip form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot fields are always JSON-encodable")
    }

    /// Parses a snapshot from JSON. Syntactic damage surfaces here as
    /// [`SnapshotError::Parse`]; semantic damage is caught by
    /// [`Session::restore`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        serde_json::from_str(text).map_err(|e| SnapshotError::Parse(e.to_string()))
    }

    fn corrupt(msg: impl Into<String>) -> DmfsgdError {
        SnapshotError::Corrupt(msg.into()).into()
    }

    /// Validates every cross-field invariant and rebuilds the live
    /// session.
    pub(crate) fn rebuild(&self) -> Result<Session, DmfsgdError> {
        if self.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaVersion {
                found: self.schema_version,
                supported: SNAPSHOT_SCHEMA_VERSION,
            }
            .into());
        }
        self.config.try_validate()?;
        if let Some(tau) = self.tau {
            crate::error::ConfigError::check_tau(tau)?;
        }
        let n = self.nodes.len();
        crate::session::validate_node_array(&self.nodes, self.config.rank)
            .map_err(Self::corrupt)?;
        if self.neighbors.len() != n {
            return Err(Self::corrupt(format!(
                "neighbor table covers {} nodes, snapshot has {n}",
                self.neighbors.len()
            )));
        }
        // alive ∪ free must partition 0..n with no duplicates.
        if self.alive.len() + self.free.len() != n {
            return Err(Self::corrupt(format!(
                "alive ({}) + departed ({}) does not cover {n} slots",
                self.alive.len(),
                self.free.len()
            )));
        }
        let mut slot_pos: Vec<Option<u32>> = vec![None; n];
        let mut seen = vec![false; n];
        for (pos, &id) in self.alive.iter().enumerate() {
            if id >= n || seen[id] {
                return Err(Self::corrupt(format!("alive list entry {id} invalid")));
            }
            seen[id] = true;
            slot_pos[id] = Some(pos as u32);
        }
        for &id in &self.free {
            if id >= n || seen[id] {
                return Err(Self::corrupt(format!("departed list entry {id} invalid")));
            }
            seen[id] = true;
        }
        if self.alive.len() < self.config.k + 1 {
            return Err(Self::corrupt(format!(
                "{} alive nodes cannot sustain neighbor sets of k={}",
                self.alive.len(),
                self.config.k
            )));
        }
        // Alive rows must be k distinct alive non-self references.
        for &i in &self.alive {
            let row = self.neighbors.neighbors(i);
            if row.len() != self.config.k {
                return Err(Self::corrupt(format!(
                    "node {i} has {} neighbors, config says k={}",
                    row.len(),
                    self.config.k
                )));
            }
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != row.len() {
                return Err(Self::corrupt(format!("node {i} has duplicate neighbors")));
            }
            for &j in row {
                if j == i {
                    return Err(Self::corrupt(format!("node {i} references itself")));
                }
                if j >= n || slot_pos[j].is_none() {
                    return Err(Self::corrupt(format!(
                        "node {i} references non-alive neighbor {j}"
                    )));
                }
            }
        }
        let rng = self.rng.rebuild()?;
        Ok(Session {
            config: self.config,
            tau: self.tau,
            nodes: self.nodes.clone(),
            neighbors: self.neighbors.clone(),
            alive_list: self.alive.clone(),
            slot_pos,
            free: self.free.clone(),
            rng,
            measurements: self.measurements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ClassLabelProvider;
    use dmf_datasets::rtt::meridian_like;

    fn trained_session() -> Session {
        let d = meridian_like(25, 11);
        let cm = d.classify(d.median());
        let mut provider = ClassLabelProvider::new(cm);
        let mut session = Session::builder().nodes(25).k(6).seed(11).build().unwrap();
        session.run(25 * 40, &mut provider).unwrap();
        session
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let session = trained_session();
        let snap = session.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parse");
        assert_eq!(snap, back);
        assert_eq!(back.schema_version(), SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(back.len(), 25);
        assert_eq!(back.config(), session.config());
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let session = trained_session();
        let mut snap = session.snapshot();
        snap.schema_version = 999;
        assert_eq!(
            Session::restore(&snap).unwrap_err(),
            DmfsgdError::Snapshot(SnapshotError::SchemaVersion {
                found: 999,
                supported: SNAPSHOT_SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn every_corruption_axis_is_detected() {
        let session = trained_session();
        let snap = session.snapshot();

        let mut bad = snap.clone();
        bad.nodes[3].id = 9;
        assert!(Session::restore(&bad).is_err(), "node id mismatch");

        let mut bad = snap.clone();
        bad.config.rank = 5;
        assert!(Session::restore(&bad).is_err(), "rank mismatch");

        let mut bad = snap.clone();
        bad.config.rank = 0;
        assert!(
            matches!(Session::restore(&bad).unwrap_err(), DmfsgdError::Config(_)),
            "invalid config must surface as ConfigError"
        );

        let mut bad = snap.clone();
        let r = bad.config.rank;
        bad.nodes[3].coords.v = crate::coords::CoordVec::from_fn(r + 1, |k| 0.1 * k as f64);
        assert!(Session::restore(&bad).is_err(), "u rank r, v rank r + 1");

        let mut bad = snap.clone();
        bad.nodes[0].coords.u[0] = f64::NAN;
        assert!(Session::restore(&bad).is_err(), "non-finite coordinate");

        let mut bad = snap.clone();
        bad.alive[0] = 4096;
        assert!(Session::restore(&bad).is_err(), "dangling alive id");

        let mut bad = snap.clone();
        bad.alive[1] = bad.alive[0];
        assert!(Session::restore(&bad).is_err(), "duplicate alive id");

        let mut bad = snap.clone();
        bad.free.push(0);
        assert!(
            Session::restore(&bad).is_err(),
            "slot both alive and departed"
        );

        let mut bad = snap.clone();
        bad.rng.index = 42;
        assert!(Session::restore(&bad).is_err(), "impossible RNG index");
    }

    /// A hand-edited snapshot whose neighbor row 0 names node 0 is
    /// outside input: it must come back as a typed parse error, not
    /// trip the structural assert behind `NeighborSets::from_sets`.
    #[test]
    fn self_referencing_neighbor_row_is_a_parse_error_not_a_panic() {
        let json = trained_session().snapshot().to_json();
        let (head, rows) = json
            .split_once("\"sets\":[[")
            .expect("neighbor table present");
        let (_, rest) = rows.split_once(',').expect("k = 6 entries in row 0");
        let edited = format!("{head}\"sets\":[[0,{rest}");
        assert_ne!(edited, json, "row 0 cannot have started with 0");
        match Snapshot::from_json(&edited) {
            Err(SnapshotError::Parse(msg)) => {
                assert!(msg.contains("node 0"), "names the row: {msg}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rng_state_split_counter_is_exact() {
        let state = RngState {
            key: [1, 2, 3, 4, 5, 6, 7, 8],
            counter_hi: 0xDEAD_BEEF,
            counter_lo: 0xFFFF_FFFF,
            index: 16,
        };
        let rng = state.rebuild().expect("valid");
        let (_, counter, _) = rng.dump_state();
        assert_eq!(counter, 0xDEAD_BEEF_FFFF_FFFF);
    }
}
