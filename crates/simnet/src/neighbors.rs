//! Neighbor and peer set management.
//!
//! DMFSGD "has the same architecture as Vivaldi where each node
//! randomly and independently chooses a neighbor set of k nodes as
//! references and randomly probes one of its neighbors at each time"
//! (paper §5.3). The peer-selection experiment (§6.4) additionally
//! gives every node a *peer set* forced to be disjoint from its
//! neighbor set, so prediction quality is evaluated on pairs the node
//! never trained on.

use dmf_linalg::simd::prefetch;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// Per-node reference sets.
///
/// Stored flat (CSR layout: one contiguous id array plus per-node
/// offsets) so that the per-probe `sample_neighbor` touches a single
/// cache-resident array instead of chasing one heap `Vec` per node.
/// Serialization keeps the historical nested-array JSON shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborSets {
    /// Concatenated neighbor ids, node by node.
    flat: Vec<usize>,
    /// `flat[offsets[i]..offsets[i+1]]` is node `i`'s neighbor list.
    offsets: Vec<u32>,
}

impl NeighborSets {
    /// Chooses `k` distinct random neighbors (≠ self) for each of `n`
    /// nodes.
    ///
    /// # Panics
    /// Panics when `k >= n` (a node cannot reference itself).
    pub fn random(n: usize, k: usize, rng: &mut impl Rng) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!(k >= 1 && k < n, "k must satisfy 1 <= k < n (k={k}, n={n})");
        let mut flat = Vec::with_capacity(n * k);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for i in 0..n {
            flat.extend(sample_distinct(n, k, &[i], rng));
            offsets.push(u32::try_from(flat.len()).expect("neighbor table overflow"));
        }
        Self { flat, offsets }
    }

    /// [`from_sets`](Self::from_sets) for lists from outside the
    /// program: `Err(i)` names a node listed as its own neighbor.
    fn try_from_sets(sets: Vec<Vec<usize>>) -> Result<Self, usize> {
        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        offsets.push(0);
        for (i, set) in sets.iter().enumerate() {
            if set.contains(&i) {
                return Err(i);
            }
            flat.extend_from_slice(set);
            offsets.push(u32::try_from(flat.len()).expect("neighbor table overflow"));
        }
        Ok(Self { flat, offsets })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbor list of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Neighbor entries over all nodes: the number of
    /// [`slot`](Self::slot)s.
    pub fn slots(&self) -> usize {
        self.flat.len()
    }

    /// Where `j` sits in the concatenated neighbor table, if it is one
    /// of node `i`'s neighbors: an index in `0..slots()` that names the
    /// ordered pair `(i, j)`, for per-pair state kept in one flat
    /// table. Stable as long as no row changes length.
    #[inline]
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let at = self.neighbors(i).iter().position(|&x| x == j)?;
        Some(self.offsets[i] as usize + at)
    }

    /// Cache hint for a caller that will sample node `i`'s neighbors
    /// shortly: prefetches the row's bounds, which
    /// [`prefetch_row`](Self::prefetch_row) has to read.
    #[inline]
    pub fn prefetch_bounds(&self, i: usize) {
        prefetch(&self.offsets[i..=i + 1]);
    }

    /// Cache hint: prefetches node `i`'s neighbor list. Reads the
    /// row's bounds, so it is cheap only once
    /// [`prefetch_bounds`](Self::prefetch_bounds) has landed.
    #[inline]
    pub fn prefetch_row(&self, i: usize) {
        prefetch(self.neighbors(i));
    }

    /// Uniformly samples one neighbor of node `i`.
    #[inline]
    pub fn sample_neighbor(&self, i: usize, rng: &mut impl Rng) -> usize {
        let set = self.neighbors(i);
        set[rng.gen_range(0..set.len())]
    }

    /// True when `j` is in node `i`'s neighbor list.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.neighbors(i).contains(&j)
    }

    /// Appends a new node with the given neighbor list; returns its
    /// id. O(len(set)) — no CSR rebuild.
    ///
    /// # Panics
    /// Panics when the set contains the new node itself (callers
    /// validate membership; this guards the structural invariant).
    pub fn add_node(&mut self, set: &[usize]) -> usize {
        let id = self.len();
        assert!(!set.contains(&id), "node {id} cannot be its own neighbor");
        self.flat.extend_from_slice(set);
        self.offsets
            .push(u32::try_from(self.flat.len()).expect("neighbor table overflow"));
        id
    }

    /// Replaces the first occurrence of `old` in node `i`'s list with
    /// `new`, in place (offsets untouched). Returns whether a
    /// replacement happened. This is the O(k) repair primitive for
    /// membership churn: swapping a departed neighbor for a live one
    /// never changes row lengths, so the CSR layout needs no rebuild.
    pub fn replace_in_row(&mut self, i: usize, old: usize, new: usize) -> bool {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        match self.flat[lo..hi].iter().position(|&x| x == old) {
            Some(pos) => {
                self.flat[lo + pos] = new;
                true
            }
            None => false,
        }
    }

    /// Overwrites node `i`'s neighbor list. Same-length rows are
    /// written in place (the common churn case: a rejoining node
    /// resamples its `k` references); a length change triggers one
    /// O(total) CSR rebuild — amortized out as long as `k` is stable.
    ///
    /// # Panics
    /// Panics when the set contains node `i` itself.
    pub fn set_row(&mut self, i: usize, set: &[usize]) {
        assert!(!set.contains(&i), "node {i} cannot be its own neighbor");
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        if set.len() == hi - lo {
            self.flat[lo..hi].copy_from_slice(set);
            return;
        }
        // Rebuild: splice the new row in and reflow the offsets.
        let mut flat = Vec::with_capacity(self.flat.len() - (hi - lo) + set.len());
        flat.extend_from_slice(&self.flat[..lo]);
        flat.extend_from_slice(set);
        flat.extend_from_slice(&self.flat[hi..]);
        let delta = set.len() as i64 - (hi - lo) as i64;
        for off in self.offsets.iter_mut().skip(i + 1) {
            *off = u32::try_from(i64::from(*off) + delta).expect("neighbor table overflow");
        }
        self.flat = flat;
    }

    /// Ids of all nodes whose neighbor list contains `j` (the rows a
    /// departure of `j` would leave dangling). O(total neighbors).
    pub fn rows_containing(&self, j: usize) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.contains(i, j)).collect()
    }

    /// Draws per-node peer sets of size `m`, disjoint from each node's
    /// neighbor set and excluding the node itself (paper §6.4).
    ///
    /// # Panics
    /// Panics when `m + k + 1 > n` so no valid peer set exists.
    pub fn disjoint_peer_sets(&self, m: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        let n = self.len();
        (0..n)
            .map(|i| {
                let mut excluded: Vec<usize> = self.neighbors(i).to_vec();
                excluded.push(i);
                assert!(
                    m + excluded.len() <= n,
                    "peer set of {m} impossible: {} nodes excluded of {n}",
                    excluded.len()
                );
                sample_distinct(n, m, &excluded, rng)
            })
            .collect()
    }
}

impl Serialize for NeighborSets {
    fn to_value(&self) -> Value {
        // Historical JSON shape: an object holding the nested lists.
        let sets: Vec<Vec<usize>> = (0..self.len())
            .map(|i| self.neighbors(i).to_vec())
            .collect();
        Value::Object(vec![("sets".to_string(), sets.to_value())])
    }
}

impl Deserialize for NeighborSets {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let sets = v
            .get("sets")
            .ok_or_else(|| DeError::missing_field("sets", "NeighborSets"))?;
        NeighborSets::try_from_sets(Vec::<Vec<usize>>::from_value(sets)?)
            .map_err(|i| DeError::custom(format!("node {i} is listed as its own neighbor")))
    }
}

/// Samples `k` distinct values from `0..n` excluding `excluded`
/// (partial Fisher–Yates over the allowed pool).
///
/// The pool is *virtual*: position `p` holds the `p`-th element of
/// `(0..n) \\ excluded` until a swap displaces it. Draw `i` swaps
/// position `i` with a random `j ≥ i`, so positions `0..k` are all
/// visited and are held outright (they end up as the sample); the at
/// most `k` displaced positions `≥ k` sit in a short list searched
/// linearly. This keeps the draw sequence — and therefore every
/// sampled set — bit-identical to a materialized partial Fisher–Yates
/// while costing O(k²) instead of O(n) per call, which is what makes
/// building 100k-node neighbor tables (n calls of this) linear in n
/// rather than quadratic.
fn sample_distinct(n: usize, k: usize, excluded: &[usize], rng: &mut impl Rng) -> Vec<usize> {
    let mut ex: Vec<usize> = excluded.iter().copied().filter(|&x| x < n).collect();
    ex.sort_unstable();
    ex.dedup();
    let pool_len = n - ex.len();
    assert!(pool_len >= k, "pool too small: {pool_len} < {k}");
    // The p-th element of the ascending allowed values.
    let nth = |p: usize| {
        let mut v = p;
        for &e in &ex {
            if e <= v {
                v += 1;
            } else {
                break;
            }
        }
        v
    };
    // At most `k` entries. The capacity of `2k` is that of the sorted
    // map this list replaced, so the sampler's allocations keep their
    // sizes and order: with `k`, glibc placed later allocations so that
    // the serving benchmarks kept ≈ 15 MB more resident after set-up.
    let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(2 * k);
    let mut head: Vec<usize> = (0..k).map(nth).collect();
    for i in 0..k {
        let j = rng.gen_range(i..pool_len);
        let vi = head[i];
        if j < k {
            head[i] = head[j];
            head[j] = vi;
        } else {
            match displaced.iter_mut().find(|(pos, _)| *pos == j) {
                Some((_, vj)) => head[i] = std::mem::replace(vj, vi),
                None => {
                    head[i] = nth(j);
                    displaced.push((j, vi));
                }
            }
        }
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl NeighborSets {
        /// Builds sets from explicit lists (used by tests and loaders).
        ///
        /// # Panics
        /// Panics when a node is listed as its own neighbor.
        fn from_sets(sets: Vec<Vec<usize>>) -> Self {
            Self::try_from_sets(sets)
                .unwrap_or_else(|i| panic!("node {i} cannot be its own neighbor"))
        }
    }

    #[test]
    fn slots_number_the_ordered_pairs_densely() {
        let mut sets = NeighborSets::from_sets(vec![vec![1, 2], vec![2], vec![0, 1]]);
        assert_eq!(sets.slots(), 5);
        let slots: Vec<_> = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)]
            .iter()
            .map(|&(i, j)| sets.slot(i, j))
            .collect();
        assert_eq!(slots, (0..5).map(Some).collect::<Vec<_>>());
        assert_eq!(sets.slot(1, 0), None, "0 is not a neighbor of 1");
        // A repaired row keeps its slots; the new neighbor takes over
        // the departed one's.
        assert!(sets.replace_in_row(0, 2, 3));
        assert_eq!(sets.slot(0, 3), Some(1));
        assert_eq!(sets.slot(0, 2), None);
    }

    /// The sparse virtual-pool sampler must replay the materialized
    /// partial Fisher–Yates draw-for-draw: neighbor tables seed every
    /// downstream golden, so this equality is what lets the O(n·k)
    /// construction land without re-pinning anything.
    #[test]
    fn sparse_sampler_matches_materialized_fisher_yates() {
        fn materialized(n: usize, k: usize, excluded: &[usize], rng: &mut impl Rng) -> Vec<usize> {
            let mut pool: Vec<usize> = (0..n).filter(|x| !excluded.contains(x)).collect();
            for i in 0..k {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        }
        for seed in 0..20u64 {
            for &(n, k, ref excluded) in &[
                (2usize, 1usize, vec![0usize]),
                (13, 5, vec![7]),
                (13, 12, vec![]),
                (50, 10, vec![3, 17, 40, 49]),
                (257, 32, vec![0, 256]),
                // n close to k: most draws swap two held positions.
                (9, 8, vec![]),
                (24, 20, vec![5, 5, 23]),
                // Many exclusions, unsorted and out of range too, as
                // `disjoint_peer_sets` passes a neighbor row plus self.
                (100, 25, (20..98).rev().step_by(2).chain([7, 300]).collect()),
                (40, 12, vec![39, 3, 11, 28, 0, 17, 25, 6, 33, 14, 21, 9]),
            ] {
                let mut a = ChaCha8Rng::seed_from_u64(seed);
                let mut b = ChaCha8Rng::seed_from_u64(seed);
                assert_eq!(
                    sample_distinct(n, k, excluded, &mut a),
                    materialized(n, k, excluded, &mut b),
                    "n={n} k={k} excluded={excluded:?} seed={seed}"
                );
                // Both must also leave the RNG at the same point.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            }
        }
    }

    #[test]
    fn random_sets_have_size_k_and_exclude_self() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ns = NeighborSets::random(50, 10, &mut rng);
        assert_eq!(ns.len(), 50);
        for i in 0..50 {
            let set = ns.neighbors(i);
            assert_eq!(set.len(), 10);
            assert!(!set.contains(&i));
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10, "neighbors must be distinct");
        }
    }

    #[test]
    fn sample_neighbor_stays_in_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ns = NeighborSets::random(20, 5, &mut rng);
        for _ in 0..100 {
            let picked = ns.sample_neighbor(3, &mut rng);
            assert!(ns.neighbors(3).contains(&picked));
        }
    }

    #[test]
    fn sample_neighbor_covers_whole_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ns = NeighborSets::random(10, 4, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(ns.sample_neighbor(0, &mut rng));
        }
        assert_eq!(seen.len(), 4, "all neighbors should eventually be probed");
    }

    #[test]
    fn peer_sets_disjoint_from_neighbors() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ns = NeighborSets::random(40, 8, &mut rng);
        let peers = ns.disjoint_peer_sets(10, &mut rng);
        for (i, peer_set) in peers.iter().enumerate() {
            assert_eq!(peer_set.len(), 10);
            assert!(!peer_set.contains(&i));
            for p in peer_set {
                assert!(
                    !ns.neighbors(i).contains(p),
                    "peer {p} of node {i} is also a neighbor"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must satisfy")]
    fn k_of_n_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        NeighborSets::random(5, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "peer set of")]
    fn oversized_peer_sets_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let ns = NeighborSets::random(10, 5, &mut rng);
        ns.disjoint_peer_sets(6, &mut rng);
    }

    #[test]
    #[should_panic(expected = "own neighbor")]
    fn from_sets_validates_self_reference() {
        NeighborSets::from_sets(vec![vec![0]]);
    }

    #[test]
    fn add_node_appends_without_disturbing_existing_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut ns = NeighborSets::random(10, 3, &mut rng);
        let before: Vec<Vec<usize>> = (0..10).map(|i| ns.neighbors(i).to_vec()).collect();
        let id = ns.add_node(&[0, 4, 7]);
        assert_eq!(id, 10);
        assert_eq!(ns.len(), 11);
        assert_eq!(ns.neighbors(10), &[0, 4, 7]);
        for (i, row) in before.iter().enumerate() {
            assert_eq!(ns.neighbors(i), row.as_slice());
        }
    }

    #[test]
    fn replace_in_row_swaps_in_place() {
        let mut ns = NeighborSets::from_sets(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        assert!(ns.replace_in_row(0, 2, 1));
        assert_eq!(ns.neighbors(0), &[1, 1]);
        assert!(!ns.replace_in_row(1, 9, 5), "absent id must be a no-op");
        assert_eq!(ns.neighbors(1), &[0, 2]);
    }

    #[test]
    fn set_row_same_length_in_place_and_longer_rebuilds() {
        let mut ns = NeighborSets::from_sets(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        ns.set_row(1, &[2, 0]);
        assert_eq!(ns.neighbors(1), &[2, 0]);
        // Length change reflows the CSR but preserves every other row.
        ns.set_row(1, &[2, 0, 0]);
        assert_eq!(ns.neighbors(0), &[1, 2]);
        assert_eq!(ns.neighbors(1), &[2, 0, 0]);
        assert_eq!(ns.neighbors(2), &[0, 1]);
        ns.set_row(1, &[2]);
        assert_eq!(ns.neighbors(1), &[2]);
        assert_eq!(ns.neighbors(2), &[0, 1]);
    }

    #[test]
    fn rows_containing_finds_all_referrers() {
        let ns = NeighborSets::from_sets(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        assert_eq!(ns.rows_containing(2), vec![0, 1]);
        assert_eq!(ns.rows_containing(0), vec![1, 2]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(
            NeighborSets::random(30, 6, &mut a),
            NeighborSets::random(30, 6, &mut b)
        );
    }
}
