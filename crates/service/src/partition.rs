//! Partitioning of the node id space across shards.
//!
//! The service splits the population into contiguous id ranges, one
//! per shard, and each range is a lock stripe: an update to node `i`
//! takes the lock of the range that owns `i`, and nothing else.
//! Contiguity keeps ownership lookup arithmetic (no routing table)
//! and makes a snapshot's ascending walk over the stripes the
//! population in id order.

use dmf_core::{ConfigError, DmfsgdError, NodeId};
use std::ops::Range;

/// A contiguous partition of node ids `0..n` into `shards` ranges.
///
/// Sizes differ by at most one: the first `n % shards` ranges get the
/// extra slot. Ownership is pure arithmetic — [`owner`](Self::owner)
/// is `O(1)` and allocation-free, which keeps it off the serving hot
/// path's profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    shards: usize,
    /// `n / shards` (the small range size).
    base: usize,
    /// `n % shards` (how many leading ranges hold `base + 1` ids).
    extra: usize,
}

impl Partition {
    /// Partitions `n` node ids across `shards` ranges.
    ///
    /// Fails with a typed [`DmfsgdError::Config`] when `shards` is
    /// zero or exceeds `n` (an empty shard could never own a node, so
    /// asking for one is always a deployment bug).
    pub fn new(n: usize, shards: usize) -> Result<Self, DmfsgdError> {
        if shards == 0 || shards > n {
            return Err(DmfsgdError::Config(ConfigError::Shards { n, shards }));
        }
        Ok(Self {
            n,
            shards,
            base: n / shards,
            extra: n % shards,
        })
    }

    /// Number of node ids covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the partition covers no ids (never, by construction:
    /// `new` requires `shards <= n` and `shards >= 1`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `id` (ids at or beyond `len` clamp to the
    /// last shard; membership is checked against the published view,
    /// not here).
    pub fn owner(&self, id: NodeId) -> usize {
        let wide = self.extra * (self.base + 1);
        let shard = if id < wide {
            id / (self.base + 1)
        } else {
            // base > 0 here: base == 0 implies extra == n, so every
            // in-range id takes the branch above.
            self.extra + (id - wide) / self.base.max(1)
        };
        shard.min(self.shards - 1)
    }

    /// The id range owned by `shard` (panics when `shard` is out of
    /// range — shard indices are internal, not wire input).
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        let start = if shard <= self.extra {
            shard * (self.base + 1)
        } else {
            self.extra * (self.base + 1) + (shard - self.extra) * self.base
        };
        let len = self.base + usize::from(shard < self.extra);
        start..start + len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_id_space() {
        for n in [1usize, 2, 7, 64, 100, 101, 257] {
            for shards in 1..=n.min(9) {
                let p = Partition::new(n, shards).unwrap();
                let mut next = 0;
                for s in 0..shards {
                    let r = p.range(s);
                    assert_eq!(r.start, next, "n={n} shards={shards} s={s}");
                    for id in r.clone() {
                        assert_eq!(p.owner(id), s, "n={n} shards={shards} id={id}");
                    }
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let p = Partition::new(10, 3).unwrap();
        let sizes: Vec<usize> = (0..3).map(|s| p.range(s).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn out_of_range_ids_clamp_to_the_last_shard() {
        let p = Partition::new(10, 4).unwrap();
        assert_eq!(p.owner(10), 3);
        assert_eq!(p.owner(usize::MAX), 3);
    }

    #[test]
    fn degenerate_partitions_are_rejected() {
        assert!(matches!(
            Partition::new(4, 0).unwrap_err(),
            DmfsgdError::Config(_)
        ));
        assert!(matches!(
            Partition::new(4, 5).unwrap_err(),
            DmfsgdError::Config(_)
        ));
        Partition::new(4, 4).expect("one node per shard is fine");
    }
}
