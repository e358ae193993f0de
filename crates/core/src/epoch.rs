//! Lock-free published coordinates: [`EpochView`].
//!
//! A [`Session`]'s incremental queries take `&self`, its training
//! methods `&mut self`: under Rust's aliasing rules a serving thread
//! cannot answer predictions while a training round is in flight, and
//! sharing the session behind a lock puts readers and the writer in
//! one convoy — exactly where shards stop scaling.
//!
//! `EpochView` is the read half of that split: a published snapshot
//! of everything the queries touch (coordinates, alive flags,
//! neighbor rows, prediction mode) laid out as a flat array of
//! atomic words with a per-slot *seqlock*, so the query
//! methods ([`raw_score`](EpochView::raw_score),
//! [`predict`](EpochView::predict),
//! [`rank_neighbors_into`](EpochView::rank_neighbors_into) and the
//! slot reads underneath them) never take a lock, never block a
//! writer, and never observe a torn slot. A writer republishing slot
//! `i` bumps the slot's sequence word to an odd value, stores the new
//! coordinates, then bumps it back to even; readers retry the
//! handful of loads whenever the sequence was odd or changed under
//! them.
//!
//! # Consistency model
//!
//! Every individual slot read is atomic: a reader sees some complete
//! previously-published `(u, v, alive)` triple, never a mix of two
//! publications. Reads of *different* slots (a prediction touches
//! two, a rank query touches a row's worth) may span publications —
//! slot `i` from before a concurrent update and slot `j` from after
//! it. That relaxation is what buys lock-freedom; with no
//! concurrent writer (e.g. the single-threaded conformance suites)
//! queries are bit-identical to the equivalent [`Session`] queries
//! as of the last publication.
//!
//! # Writer contract
//!
//! The publication methods ([`publish_slot`](EpochView::publish_slot),
//! [`publish_all`](EpochView::publish_all)) take `&self` — they are
//! built from atomics and are memory-safe under any interleaving —
//! but they assume **externally serialized writers: one writer at a
//! time per slot**. Two unserialized writers racing on one slot could
//! interleave their sequence bumps so that a reader validates a mix
//! of their payloads; writers of *different* slots never touch a
//! shared word. The sharded service publishes each slot under the
//! lock stripe that owns it (a restore holds every stripe);
//! single-writer embedders get the guarantee for free.

use crate::config::PredictionMode;
use crate::coords::Coordinates;
use crate::error::{DmfsgdError, MembershipError, NodeId};
use crate::session::{rank_scored, Session};
use dmf_linalg::CoordVec;
use dmf_simnet::NeighborSets;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Words per slot in front of the coordinate payload: the sequence
/// word and the alive flag.
const SLOT_HEADER: usize = 2;

/// A lock-free, torn-read-free published snapshot of a session's
/// coordinates — the concurrent read half of a [`Session`] (see the
/// [module docs](self) for the consistency model and the
/// single-writer contract).
pub struct EpochView {
    rank: usize,
    mode: PredictionMode,
    neighbors: NeighborSets,
    /// `len` slots of `SLOT_HEADER + 2 * rank` words each:
    /// `[seq, alive, u[0..rank], v[0..rank]]`. Sequence words are even
    /// between publications, odd while one is in flight.
    words: Vec<AtomicU64>,
    len: usize,
}

impl EpochView {
    /// Captures a query-ready view of `session`'s current
    /// coordinates, membership and neighbor rows.
    pub fn capture(session: &Session) -> Self {
        let rank = session.config().rank;
        let len = session.len();
        let stride = SLOT_HEADER + 2 * rank;
        let mut words = Vec::with_capacity(len * stride);
        for id in 0..len {
            let node = session.node(id).expect("id < len");
            words.push(AtomicU64::new(0)); // seq: even, no write in flight
            words.push(AtomicU64::new(u64::from(session.is_alive(id))));
            words.extend(node.coords.u.iter().map(|c| AtomicU64::new(c.to_bits())));
            words.extend(node.coords.v.iter().map(|c| AtomicU64::new(c.to_bits())));
        }
        Self {
            rank,
            mode: session.config().mode,
            neighbors: session.neighbors().clone(),
            words,
            len,
        }
    }

    /// Number of node slots covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinate rank of every slot.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The session's prediction mode at capture time.
    pub fn mode(&self) -> PredictionMode {
        self.mode
    }

    /// The neighbor rows as of capture time.
    pub fn neighbors(&self) -> &NeighborSets {
        &self.neighbors
    }

    fn stride(&self) -> usize {
        SLOT_HEADER + 2 * self.rank
    }

    /// One consistent `(alive, u?, v?)` read of slot `id` into
    /// caller buffers (either may be `None` when that half isn't
    /// needed); `None` when `id` is out of range. Retries while a
    /// publication of the slot is in flight — readers never block and
    /// never observe a torn slot.
    fn read_slot(
        &self,
        id: NodeId,
        mut u: Option<&mut [f64]>,
        mut v: Option<&mut [f64]>,
    ) -> Option<bool> {
        if id >= self.len {
            return None;
        }
        let base = id * self.stride();
        let w = &self.words;
        loop {
            let s1 = w[base].load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let alive = w[base + 1].load(Ordering::Relaxed) != 0;
            if let Some(u) = u.as_deref_mut() {
                for (k, slot) in u.iter_mut().enumerate().take(self.rank) {
                    *slot = f64::from_bits(w[base + SLOT_HEADER + k].load(Ordering::Relaxed));
                }
            }
            if let Some(v) = v.as_deref_mut() {
                for (k, slot) in v.iter_mut().enumerate().take(self.rank) {
                    *slot = f64::from_bits(
                        w[base + SLOT_HEADER + self.rank + k].load(Ordering::Relaxed),
                    );
                }
            }
            // Order the data loads before the re-read of the sequence
            // word: if it still matches the even value we started
            // from, no publication overlapped the loads.
            fence(Ordering::Acquire);
            if w[base].load(Ordering::Relaxed) == s1 {
                return Some(alive);
            }
            std::hint::spin_loop();
        }
    }

    /// Consistent read of slot `id`'s full `(u, v)` pair; returns the
    /// alive flag from the same publication, `None` out of range.
    /// Both buffers must hold at least [`rank`](Self::rank) elements.
    pub fn read_into(&self, id: NodeId, u: &mut [f64], v: &mut [f64]) -> Option<bool> {
        debug_assert!(u.len() >= self.rank && v.len() >= self.rank);
        self.read_slot(id, Some(u), Some(v))
    }

    /// The alive flag of slot `id` (`None` out of range), consistent
    /// with some publication.
    pub fn is_alive(&self, id: NodeId) -> Option<bool> {
        self.read_slot(id, None, None)
    }

    /// Membership check mirroring the session's error order and
    /// payloads exactly (the parity suites pin this).
    pub fn check_alive(&self, id: NodeId) -> Result<(), MembershipError> {
        match self.is_alive(id) {
            None => Err(MembershipError::UnknownNode {
                id,
                slots: self.len,
            }),
            Some(false) => Err(MembershipError::Departed { id }),
            Some(true) => Ok(()),
        }
    }

    /// The full pair check in the session's order: `i`'s membership,
    /// then `j`'s, then the self-pair rejection.
    pub fn check_pair(&self, i: NodeId, j: NodeId) -> Result<(), MembershipError> {
        self.check_alive(i)?;
        self.check_alive(j)?;
        if i == j {
            return Err(MembershipError::SelfPair { id: i });
        }
        Ok(())
    }

    /// Publishes new coordinates (and alive flag) into slot `id`,
    /// `O(r)`. Fails (leaving the slot untouched) when `id` is out of
    /// range or `coords` has the wrong rank. Writers must be externally
    /// serialized (see the [module docs](self)).
    pub fn publish_slot(
        &self,
        id: NodeId,
        coords: &Coordinates,
        alive: bool,
    ) -> Result<(), DmfsgdError> {
        if id >= self.len || coords.rank() != self.rank {
            return Err(DmfsgdError::Import(format!(
                "republish of node {id} does not fit the published view \
                 ({} slots, rank {})",
                self.len, self.rank
            )));
        }
        let base = id * self.stride();
        let w = &self.words;
        // Seqlock write: odd sequence opens the critical section,
        // the Release fence orders it before the payload stores, and
        // the final even store publishes the payload to any reader
        // that observes it.
        let s = w[base].load(Ordering::Relaxed);
        debug_assert_eq!(
            s & 1,
            0,
            "publication already in flight (unserialized writer)"
        );
        w[base].store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        w[base + 1].store(u64::from(alive), Ordering::Relaxed);
        for (k, c) in coords.u.iter().enumerate() {
            w[base + SLOT_HEADER + k].store(c.to_bits(), Ordering::Relaxed);
        }
        for (k, c) in coords.v.iter().enumerate() {
            w[base + SLOT_HEADER + self.rank + k].store(c.to_bits(), Ordering::Relaxed);
        }
        w[base].store(s.wrapping_add(2), Ordering::Release);
        Ok(())
    }

    /// Republishes every slot from `session` (a restore/rollback is
    /// the expected caller). The population size and rank must match
    /// the captured layout.
    pub fn publish_all(&self, session: &Session) -> Result<(), DmfsgdError> {
        if session.len() != self.len || session.config().rank != self.rank {
            return Err(DmfsgdError::Import(format!(
                "republish of a {}-node rank-{} session into a \
                 {}-slot rank-{} view",
                session.len(),
                session.config().rank,
                self.len,
                self.rank
            )));
        }
        for (id, node) in session.nodes().iter().enumerate() {
            self.publish_slot(id, &node.coords, session.is_alive(id))?;
        }
        Ok(())
    }

    /// Raw predictor output `u_i · v_j` — bit-identical to
    /// [`Session::raw_score`] (same dot kernel), reading each slot
    /// atomically.
    pub fn raw_score(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let mut u_i = CoordVec::zeros(self.rank);
        let mut v_j = CoordVec::zeros(self.rank);
        self.raw_score_into(i, j, &mut u_i, &mut v_j)
    }

    /// [`raw_score`](Self::raw_score) with caller-owned scratch
    /// buffers (each at least [`rank`](Self::rank) long). Reads only
    /// `u_i` and `v_j`: each slot read fetches the half it needs.
    fn raw_score_into(
        &self,
        i: NodeId,
        j: NodeId,
        u_i: &mut [f64],
        v_j: &mut [f64],
    ) -> Result<f64, DmfsgdError> {
        match self.read_slot(i, Some(u_i), None) {
            None => {
                return Err(MembershipError::UnknownNode {
                    id: i,
                    slots: self.len,
                }
                .into())
            }
            Some(false) => return Err(MembershipError::Departed { id: i }.into()),
            Some(true) => {}
        }
        match self.read_slot(j, None, Some(v_j)) {
            None => {
                return Err(MembershipError::UnknownNode {
                    id: j,
                    slots: self.len,
                }
                .into())
            }
            Some(false) => return Err(MembershipError::Departed { id: j }.into()),
            Some(true) => {}
        }
        if i == j {
            return Err(MembershipError::SelfPair { id: i }.into());
        }
        Ok(crate::coords::dot(&u_i[..self.rank], &v_j[..self.rank]))
    }

    /// Predicted measure in natural units (see [`Session::predict`]).
    pub fn predict(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let raw = self.raw_score(i, j)?;
        Ok(match self.mode {
            PredictionMode::Class => raw,
            PredictionMode::Quantity { value_scale } => raw * value_scale,
        })
    }

    /// Predicted class of the path `i → j`: `+1.0` when the raw score
    /// is non-negative, `-1.0` otherwise.
    pub fn predict_class(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let raw = self.raw_score(i, j)?;
        Ok(if raw >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Node `i`'s neighbors ranked by predicted score into a
    /// caller-owned buffer — [`Session::rank_neighbors_into`]
    /// semantics (same tie-break, departed neighbors included), each
    /// slot read atomically.
    pub fn rank_neighbors_into(
        &self,
        i: NodeId,
        top_k: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<(), DmfsgdError> {
        out.clear();
        self.check_alive(i)?;
        let mut u_i = CoordVec::zeros(self.rank);
        let mut v_j = CoordVec::zeros(self.rank);
        self.read_slot(i, Some(&mut u_i), None);
        for &j in self.neighbors.neighbors(i) {
            self.read_slot(j, None, Some(&mut v_j));
            out.push((j, crate::coords::dot(&u_i, &v_j)));
        }
        rank_scored(out, top_k);
        Ok(())
    }

    /// Allocating convenience form of
    /// [`rank_neighbors_into`](Self::rank_neighbors_into).
    pub fn rank_neighbors(
        &self,
        i: NodeId,
        top_k: usize,
    ) -> Result<Vec<(NodeId, f64)>, DmfsgdError> {
        let mut out = Vec::new();
        self.rank_neighbors_into(i, top_k, &mut out)?;
        Ok(out)
    }
}

impl std::fmt::Debug for EpochView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochView")
            .field("len", &self.len)
            .field("rank", &self.rank)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;
    use std::sync::Arc;

    fn session(n: usize, seed: u64) -> Session {
        SessionBuilder::new()
            .nodes(n)
            .k(n.saturating_sub(1).min(10))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn capture_answers_bit_identically_to_the_coord_view() {
        let mut s = session(20, 41);
        for step in 0..150usize {
            let i = step % 20;
            let j = (i + 1 + step % 19) % 20;
            let x = if step % 3 == 0 { -1.0 } else { 1.0 };
            s.apply_measurement(i, j, x, dmf_datasets::Metric::Rtt)
                .unwrap();
        }
        let epoch = EpochView::capture(&s);
        assert_eq!(epoch.len(), 20);
        assert_eq!(epoch.rank(), s.config().rank);
        for i in 0..20 {
            for j in 0..20 {
                match (s.raw_score(i, j), epoch.raw_score(i, j)) {
                    (Ok(a), Ok(b)) => assert!(a == b, "({i},{j}): {a} != {b}"),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("({i},{j}): {a:?} vs {b:?}"),
                }
                assert_eq!(s.predict(i, j).ok(), epoch.predict(i, j).ok());
                assert_eq!(s.predict_class(i, j).ok(), epoch.predict_class(i, j).ok());
            }
            assert_eq!(
                s.rank_neighbors(i, 8).unwrap(),
                epoch.rank_neighbors(i, 8).unwrap()
            );
        }
    }

    #[test]
    fn membership_errors_mirror_the_session_surface() {
        let s = session(8, 5);
        let epoch = EpochView::capture(&s);
        assert_eq!(
            epoch.raw_score(3, 3).unwrap_err(),
            s.raw_score(3, 3).unwrap_err()
        );
        assert_eq!(
            epoch.raw_score(0, 99).unwrap_err(),
            s.raw_score(0, 99).unwrap_err()
        );
        assert_eq!(
            epoch.raw_score(99, 0).unwrap_err(),
            s.raw_score(99, 0).unwrap_err()
        );
        assert_eq!(
            epoch.rank_neighbors(99, 4).unwrap_err(),
            s.rank_neighbors(99, 4).unwrap_err()
        );
    }

    #[test]
    fn publish_slot_is_visible_and_validated() {
        let mut s = session(10, 6);
        let epoch = EpochView::capture(&s);
        let before = epoch.raw_score(0, 1).unwrap();
        s.apply_measurement(0, 1, 1.0, dmf_datasets::Metric::Rtt)
            .unwrap();
        // Not yet published: still the captured coordinates.
        assert_eq!(epoch.raw_score(0, 1).unwrap(), before);
        epoch
            .publish_slot(0, &s.node(0).unwrap().coords, true)
            .unwrap();
        assert_eq!(epoch.raw_score(0, 1).unwrap(), s.raw_score(0, 1).unwrap());
        // Out-of-range and wrong-rank publications are rejected.
        assert!(matches!(
            epoch
                .publish_slot(99, &s.node(0).unwrap().coords, true)
                .unwrap_err(),
            DmfsgdError::Import(_)
        ));
        let skinny = Coordinates {
            u: CoordVec::zeros(1),
            v: CoordVec::zeros(1),
        };
        assert!(matches!(
            epoch.publish_slot(0, &skinny, true).unwrap_err(),
            DmfsgdError::Import(_)
        ));
    }

    #[test]
    fn publish_all_rolls_the_whole_view_forward() {
        let mut s = session(12, 7);
        let epoch = EpochView::capture(&s);
        for step in 0..60usize {
            let i = step % 12;
            let j = (i + 1 + step % 11) % 12;
            s.apply_measurement(i, j, 1.0, dmf_datasets::Metric::Rtt)
                .unwrap();
        }
        epoch.publish_all(&s).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(epoch.raw_score(i, j).ok(), s.raw_score(i, j).ok());
            }
        }
        let other = session(5, 1);
        assert!(matches!(
            epoch.publish_all(&other).unwrap_err(),
            DmfsgdError::Import(_)
        ));
    }

    /// The seqlock's torn-read guarantee, hammered directly: a writer
    /// publishes recognizable all-equal patterns into one slot while
    /// readers assert every observed vector is one of the published
    /// patterns — uniform within a slot, with `u` and `v` from the
    /// same publication.
    #[test]
    fn concurrent_readers_never_observe_a_torn_slot() {
        let s = session(4, 9);
        let rank = s.config().rank;
        let epoch = Arc::new(EpochView::capture(&s));
        let pattern = move |k: f64| Coordinates {
            u: CoordVec::from_fn(rank, |_| k),
            v: CoordVec::from_fn(rank, |_| -k),
        };
        // A reader may be scheduled before the writer's first round:
        // replace the captured random coordinates with a pattern first.
        epoch.publish_slot(0, &pattern(0.0), true).unwrap();
        let writer = {
            let epoch = Arc::clone(&epoch);
            std::thread::spawn(move || {
                for round in 1..=2_000u64 {
                    epoch.publish_slot(0, &pattern(round as f64), true).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                std::thread::spawn(move || {
                    let mut u = vec![0.0; rank];
                    let mut v = vec![0.0; rank];
                    let mut observed = 0u64;
                    while observed < 4_000 {
                        let alive = epoch.read_into(0, &mut u, &mut v).unwrap();
                        assert!(alive);
                        let k = u[0];
                        assert!(
                            u.iter().all(|&c| c == k) && v.iter().all(|&c| c == -k),
                            "torn slot: u={u:?} v={v:?}"
                        );
                        observed += 1;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        // The final publication is the visible one.
        let mut u = vec![0.0; rank];
        let mut v = vec![0.0; rank];
        epoch.read_into(0, &mut u, &mut v).unwrap();
        assert_eq!(u[0], 2_000.0);
    }
}
