//! Deterministic, seeded transport fault injection.
//!
//! A [`FaultInjector`] sits between a sender and the wire and mangles
//! datagrams the way a hostile network would: **drop**, **duplicate**,
//! **reorder** (hold one datagram back and release it after the next),
//! **truncate**, and **bit-flip**. All draws come from an inline
//! xorshift64* generator seeded at construction, so a given
//! `(spec, seed)` pair replays the exact same fault schedule — tests
//! that assert on recovery behaviour are reproducible down to the
//! byte.
//!
//! The injector is pure byte-level plumbing: it knows nothing about
//! the protocol, so it exercises every [`crate::codec::DecodeError`]
//! path for free. `dmf-agent` wraps its UDP socket in a
//! `FaultySocket` built on this type; `examples/lossy_cluster.rs`
//! drives a whole cluster through it.

/// Per-datagram fault probabilities, each in `[0, 1]`.
///
/// Probabilities are evaluated independently in a fixed order (drop,
/// truncate, bit-flip, duplicate, reorder), so e.g. a duplicated
/// datagram carries any corruption applied to the original.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability the datagram is silently discarded.
    pub drop: f64,
    /// Probability the datagram is cut short (to ≥ 1 byte).
    pub truncate: f64,
    /// Probability a single random bit is flipped.
    pub bit_flip: f64,
    /// Probability the datagram is delivered twice.
    pub duplicate: f64,
    /// Probability the datagram is held back and released after the
    /// next one (pairwise reordering).
    pub reorder: f64,
}

impl FaultSpec {
    /// No faults (the identity transport).
    pub fn none() -> Self {
        Self::default()
    }

    /// The CI loss scenario: 20% drop plus a spread of corruption,
    /// duplication and reordering.
    pub fn lossy() -> Self {
        FaultSpec {
            drop: 0.20,
            truncate: 0.03,
            bit_flip: 0.05,
            duplicate: 0.05,
            reorder: 0.05,
        }
    }

    /// Whether every probability is zero.
    pub fn is_none(&self) -> bool {
        *self == Self::default()
    }
}

/// Seeded fault injector over raw datagrams.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    state: u64,
    held: Option<Vec<u8>>,
    counts: FaultCounts,
}

/// How many faults of each kind have fired (read by this module's
/// tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FaultCounts {
    /// Datagrams discarded.
    drops: u64,
    /// Datagrams cut short.
    truncations: u64,
    /// Datagrams with a flipped bit.
    bit_flips: u64,
    /// Datagrams delivered twice.
    duplicates: u64,
    /// Datagrams held back for reordering.
    reorders: u64,
}

impl FaultInjector {
    /// Injector with the given spec and seed. Identical `(spec, seed)`
    /// pairs produce identical fault schedules.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        // splitmix64 turns any seed (including 0) into a full-entropy
        // non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultInjector {
            spec,
            state: z.max(1),
            held: None,
            counts: FaultCounts::default(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Pushes one datagram through the fault model, returning the
    /// datagrams that actually reach the wire (0, 1 or more), in
    /// order. A datagram held for reordering is released after the
    /// next call.
    pub fn apply(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        let released = self.held.take();
        let mut out = Vec::new();

        if self.chance(self.spec.drop) {
            self.counts.drops += 1;
        } else {
            let mut d = datagram.to_vec();
            if d.len() > 1 && self.chance(self.spec.truncate) {
                let keep = 1 + (self.next_u64() as usize) % (d.len() - 1);
                d.truncate(keep);
                self.counts.truncations += 1;
            }
            if !d.is_empty() && self.chance(self.spec.bit_flip) {
                let bit = (self.next_u64() as usize) % (d.len() * 8);
                d[bit / 8] ^= 1 << (bit % 8);
                self.counts.bit_flips += 1;
            }
            let dup = self.chance(self.spec.duplicate);
            if released.is_none() && self.held.is_none() && self.chance(self.spec.reorder) {
                self.counts.reorders += 1;
                self.held = Some(d);
            } else {
                if dup {
                    self.counts.duplicates += 1;
                    out.push(d.clone());
                }
                out.push(d);
            }
        }

        if let Some(late) = released {
            out.push(late);
        }
        out
    }

    /// Releases a datagram still held for reordering, if any (call at
    /// stream end so the tail is delayed rather than lost).
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }

    /// Fault counters so far.
    #[cfg(test)]
    fn counts(&self) -> FaultCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: FaultSpec, seed: u64, n: usize) -> (Vec<Vec<u8>>, FaultCounts) {
        let mut inj = FaultInjector::new(spec, seed);
        let mut out = Vec::new();
        for i in 0..n {
            let datagram = vec![i as u8; 16];
            out.extend(inj.apply(&datagram));
        }
        out.extend(inj.flush());
        (out, inj.counts())
    }

    #[test]
    fn no_faults_is_identity() {
        let (out, counts) = run(FaultSpec::none(), 1, 50);
        assert_eq!(out.len(), 50);
        for (i, d) in out.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 16]);
        }
        assert_eq!(counts, FaultCounts::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let (a, ca) = run(FaultSpec::lossy(), 42, 500);
        let (b, cb) = run(FaultSpec::lossy(), 42, 500);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let (c, _) = run(FaultSpec::lossy(), 43, 500);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn lossy_spec_fires_every_fault_kind() {
        let (_, counts) = run(FaultSpec::lossy(), 7, 2000);
        assert!(counts.drops > 0, "{counts:?}");
        assert!(counts.truncations > 0, "{counts:?}");
        assert!(counts.bit_flips > 0, "{counts:?}");
        assert!(counts.duplicates > 0, "{counts:?}");
        assert!(counts.reorders > 0, "{counts:?}");
    }

    #[test]
    fn drop_rate_close_to_spec() {
        let spec = FaultSpec {
            drop: 0.2,
            ..FaultSpec::none()
        };
        let (out, counts) = run(spec, 11, 10_000);
        assert_eq!(out.len() as u64 + counts.drops, 10_000);
        let rate = counts.drops as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let spec = FaultSpec {
            reorder: 1.0,
            ..FaultSpec::none()
        };
        let mut inj = FaultInjector::new(spec, 5);
        assert!(inj.apply(&[1]).is_empty(), "first datagram is held");
        // Second call: the new datagram is emitted first, then the
        // held one — and since a datagram was already held, the new
        // one passes straight through.
        assert_eq!(inj.apply(&[2]), vec![vec![2], vec![1]]);
        assert!(inj.apply(&[3]).is_empty());
        assert_eq!(inj.flush(), Some(vec![3]));
    }

    #[test]
    fn truncation_never_empties_a_datagram() {
        let spec = FaultSpec {
            truncate: 1.0,
            ..FaultSpec::none()
        };
        let mut inj = FaultInjector::new(spec, 3);
        for _ in 0..200 {
            for d in inj.apply(&[0xAA; 32]) {
                assert!(!d.is_empty() && d.len() < 32);
            }
        }
        // A 1-byte datagram cannot shrink.
        assert_eq!(inj.apply(&[9]), vec![vec![9]]);
    }

    #[test]
    fn duplicate_carries_corruption() {
        let spec = FaultSpec {
            bit_flip: 1.0,
            duplicate: 1.0,
            ..FaultSpec::none()
        };
        let mut inj = FaultInjector::new(spec, 9);
        let out = inj.apply(&[0u8; 8]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1], "duplicate is byte-identical");
        assert_ne!(out[0], vec![0u8; 8], "and carries the bit flip");
    }
}
