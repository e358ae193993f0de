//! Seeded input generation for the serving workloads.
//!
//! Every request is a pure function of `(seed, stream, index)`, so the
//! load generator, the oracle replay and the unit tests all see the same
//! schedule without sharing state. The service itself only ever
//! receives the generated requests.

use dmf_core::DmfsgdConfig;
use dmf_datasets::ClassMatrix;

/// The paper's default configuration with `k` neighbors, seeded.
pub fn paper_config(k: usize, seed: u64) -> DmfsgdConfig {
    let mut cfg = DmfsgdConfig::paper_defaults().with_k(k);
    cfg.seed = seed;
    cfg
}

/// The ground-truth classes as one bit per ordered pair (set = good).
/// A 1024-node population takes 128 KiB instead of the 8 MiB label
/// matrix, so the generator's class lookups stay in cache and do not
/// compete with the service for memory bandwidth.
pub struct ClassBits {
    n: usize,
    words: Vec<u64>,
}

impl ClassBits {
    /// Packs `class`; every off-diagonal pair must be observed.
    pub fn new(class: &ClassMatrix) -> Self {
        let n = class.len();
        let mut words = vec![0u64; (n * n).div_ceil(64)];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let label = class
                    .label(i, j)
                    .expect("generated datasets observe every off-diagonal pair");
                if label > 0.0 {
                    words[(i * n + j) / 64] |= 1 << ((i * n + j) % 64);
                }
            }
        }
        Self { n, words }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the path `i -> j` is in the good class.
    pub fn good(&self, i: usize, j: usize) -> bool {
        let bit = i * self.n + j;
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The class label (`+1.0` / `-1.0`) of the path `i -> j`.
    pub fn label(&self, i: usize, j: usize) -> f64 {
        if self.good(i, j) {
            1.0
        } else {
            -1.0
        }
    }
}

/// SplitMix64: the harness's own small generator (the layers keep their
/// ChaCha streams to themselves).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`); the modulo bias at `n` far below
    /// 2^64 is irrelevant to a traffic mix.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Two distinct values, each uniform in `0..n` (`n >= 2`).
    pub fn distinct_pair(&mut self, n: u64) -> (u64, u64) {
        let a = self.below(n);
        (a, (a + 1 + self.below(n - 1)) % n)
    }
}

/// One generated request against the prediction service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Req {
    Predict { i: u32, j: u32 },
    Rank { i: u32 },
    Update { i: u32, j: u32, x: f64 },
}

/// Neighbors returned by a rank request.
pub const RANK_TOP_K: u16 = 8;

/// A traffic mix in whole percent; what is left over is updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub predict_pct: u64,
    pub rank_pct: u64,
}

impl Mix {
    /// 60 % predict / 30 % rank / 10 % update.
    pub const SERVE_READ: Mix = Mix {
        predict_pct: 60,
        rank_pct: 30,
    };
    /// 10 % predict / 90 % update.
    pub const SERVE_WRITE: Mix = Mix {
        predict_pct: 10,
        rank_pct: 0,
    };

    /// The request a percentile `roll` (`0..100`) selects for the pair
    /// `(i, j)`; `class` supplies the value of an update.
    pub fn pick(self, roll: u64, i: u32, j: u32, class: impl FnOnce() -> f64) -> Req {
        if roll < self.predict_pct {
            Req::Predict { i, j }
        } else if roll < self.predict_pct + self.rank_pct {
            Req::Rank { i }
        } else {
            Req::Update { i, j, x: class() }
        }
    }
}

/// The id lane a connection is confined to: ids `≡ index (mod of)`.
/// With every connection on its own lane, nothing a connection reads
/// through predict or update is ever written by another connection, so
/// its response stream is a function of its own requests alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    pub index: u32,
    pub of: u32,
}

impl Lane {
    pub const WHOLE: Lane = Lane { index: 0, of: 1 };

    /// How many ids below `n` fall on this lane.
    fn size(self, n: u32) -> u64 {
        u64::from((n - self.index).div_ceil(self.of))
    }

    fn nth(self, k: u64) -> u32 {
        self.index + self.of * k as u32
    }

    #[cfg(test)]
    pub fn contains(self, id: u32) -> bool {
        id % self.of == self.index
    }
}

/// Request streams of one run; the stream id is mixed into the seed so
/// phases and connections draw independent schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    WarmUp,
    Open,
    Closed { connection: u32 },
    Traced,
}

impl Stream {
    fn id(self) -> u64 {
        match self {
            Stream::WarmUp => 1,
            Stream::Open => 2,
            Stream::Traced => 3,
            Stream::Closed { connection } => 16 + u64::from(connection),
        }
    }
}

/// A seeded request schedule over an `n`-node population whose update
/// values are the ground-truth classes in `class`.
pub struct Schedule<'a> {
    pub seed: u64,
    pub mix: Mix,
    pub class: &'a ClassBits,
}

impl Schedule<'_> {
    /// Request `index` of `stream`, confined to `lane`.
    pub fn request(&self, stream: Stream, lane: Lane, index: u64) -> Req {
        let n = self.class.len() as u32;
        let mut rng = SplitMix64::new(
            self.seed
                ^ stream.id().wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ index.wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let roll = rng.below(100);
        // Two distinct positions on the lane.
        let (a, b) = rng.distinct_pair(lane.size(n));
        let (i, j) = (lane.nth(a), lane.nth(b));
        self.mix
            .pick(roll, i, j, || self.class.label(i as usize, j as usize))
    }
}

/// FNV-1a (64-bit) over the decoded response fields — the digest the
/// output check compares against the oracle replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::rtt::meridian_like;

    fn class(n: usize) -> ClassBits {
        let d = meridian_like(n, 5);
        ClassBits::new(&d.classify(d.median()))
    }

    #[test]
    fn class_bits_agree_with_the_class_matrix() {
        let d = meridian_like(33, 9);
        let matrix = d.classify(d.median());
        let bits = ClassBits::new(&matrix);
        assert_eq!(bits.len(), 33);
        for i in 0..33 {
            for j in 0..33 {
                if i != j {
                    assert_eq!(Some(bits.label(i, j)), matrix.label(i, j));
                }
            }
        }
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds_and_streams() {
        let class = class(64);
        let sched = |seed| Schedule {
            seed,
            mix: Mix::SERVE_READ,
            class: &class,
        };
        let take = |s: &Schedule, stream| -> Vec<Req> {
            (0..500)
                .map(|k| s.request(stream, Lane::WHOLE, k))
                .collect()
        };
        let a = take(&sched(7), Stream::Open);
        assert_eq!(a, take(&sched(7), Stream::Open), "same seed, same schedule");
        assert_ne!(a, take(&sched(8), Stream::Open), "another seed differs");
        assert_ne!(
            a,
            take(&sched(7), Stream::WarmUp),
            "streams are independent"
        );
        assert_ne!(
            take(&sched(7), Stream::Closed { connection: 0 }),
            take(&sched(7), Stream::Closed { connection: 1 }),
        );
    }

    #[test]
    fn the_mix_tracks_its_percentages() {
        let class = class(64);
        for mix in [Mix::SERVE_READ, Mix::SERVE_WRITE] {
            let s = Schedule {
                seed: 3,
                mix,
                class: &class,
            };
            let (mut p, mut r, mut u) = (0u64, 0u64, 0u64);
            for k in 0..20_000 {
                match s.request(Stream::Open, Lane::WHOLE, k) {
                    Req::Predict { .. } => p += 1,
                    Req::Rank { .. } => r += 1,
                    Req::Update { .. } => u += 1,
                }
            }
            let pct = |c: u64| c as f64 / 200.0;
            assert!((pct(p) - mix.predict_pct as f64).abs() < 1.5, "{mix:?}");
            assert!((pct(r) - mix.rank_pct as f64).abs() < 1.5, "{mix:?}");
            let update_pct = 100 - mix.predict_pct - mix.rank_pct;
            assert!((pct(u) - update_pct as f64).abs() < 1.5, "{mix:?}");
        }
    }

    #[test]
    fn every_request_stays_on_its_lane_and_never_pairs_a_node_with_itself() {
        // Odd population: the lanes have different sizes.
        let class = class(65);
        let s = Schedule {
            seed: 11,
            mix: Mix::SERVE_WRITE,
            class: &class,
        };
        for of in [1u32, 2, 3] {
            for index in 0..of {
                let lane = Lane { index, of };
                for k in 0..5_000 {
                    let stream = Stream::Closed { connection: index };
                    let (i, j) = match s.request(stream, lane, k) {
                        Req::Predict { i, j } | Req::Update { i, j, .. } => (i, Some(j)),
                        Req::Rank { i } => (i, None),
                    };
                    assert!(i < 65 && lane.contains(i), "{lane:?}: i = {i}");
                    if let Some(j) = j {
                        assert!(j < 65 && lane.contains(j), "{lane:?}: j = {j}");
                        assert_ne!(i, j);
                    }
                }
            }
        }
    }

    #[test]
    fn update_values_are_the_ground_truth_classes() {
        let class = class(32);
        let s = Schedule {
            seed: 2,
            mix: Mix::SERVE_WRITE,
            class: &class,
        };
        for k in 0..2_000 {
            if let Req::Update { i, j, x } = s.request(Stream::Open, Lane::WHOLE, k) {
                assert_eq!(x, class.label(i as usize, j as usize));
            }
        }
    }

    #[test]
    fn digests_depend_on_order_and_content() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }
}
