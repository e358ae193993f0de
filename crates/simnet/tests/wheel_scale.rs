//! The event queue at population scale: many keys per wheel bucket.
//!
//! With one queue behind the sharded simulator a 1 ms wheel bucket
//! holds ~100 keys at 100 k nodes, so buckets are appended to and put
//! in order only when the clock reaches them. The unit tests in
//! `event.rs` schedule at most a few keys per bucket and never reach
//! that regime; these scripts put at least 64 far-lane keys into each
//! of a dozen buckets and then churn, and demand the exact
//! `(time, insertion order)` stream of a stable reference sort:
//!
//! * both lanes, with same-instant ties across them (times are
//!   quantized to 64 steps per bucket, so ties are everywhere);
//! * pops — plain and deadline-bounded — interleaved with schedules;
//! * keys landing in the bucket being drained (a target the clock has
//!   passed is clamped to *now*: a tie with the event just popped);
//! * buckets at the edge of the 2 s horizon and beyond it (overflow
//!   heap), and a clock origin that puts the ring mid-revolution;
//! * `upcoming(k)` lookups thrown in anywhere: they must leave the
//!   stream alone, show only pending far-lane payloads, and — asked
//!   when nothing was scheduled since the last pop — name exactly the
//!   payload that comes out `k` far-lane pops after the next one
//!   (`prefetch_upcoming(k)` rides along: it may not disturb anything
//!   either).

use dmf_simnet::{EventQueue, Lane, SimTime};
use proptest::prelude::*;

/// The wheel's bucket width (`1 / BUCKETS_PER_SECOND` in `event.rs`).
const BUCKET_S: f64 = 1.0 / 1024.0;
/// Distinct times per bucket.
const STEPS: u32 = 64;
/// Target buckets, counted from the script's origin bucket. The wheel
/// spans 2048 buckets from the clock: 2047 is its last slot, 2048 and
/// up start in the overflow heap.
const OFFSETS: [u64; 12] = [0, 1, 2, 3, 17, 300, 1500, 2046, 2047, 2048, 2049, 6000];
/// Far-lane keys each target bucket holds before the first pop.
const FILL_PER_BUCKET: usize = 64;

#[derive(Clone, Debug)]
enum Op {
    Schedule { far: bool, slot: usize, step: u32 },
    Pop(u8),
    PopBefore { slot: usize, step: u32 },
    Upcoming(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0u8..4, 0..OFFSETS.len(), 0..STEPS, 1u8..6).prop_map(
        |(kind, lane, slot, step, count)| match kind {
            0..=6 => Op::Schedule {
                far: lane != 0,
                slot,
                step,
            },
            7..=8 => Op::Pop(count),
            // Deadlines among the early buckets: once the clock has
            // passed them this pops nothing, which is also a case.
            9 => Op::PopBefore {
                slot: slot % 6,
                step,
            },
            // 0..=159 against buckets of 64 and up: inside and past.
            _ => Op::Upcoming(step as usize + 24 * (count as usize - 1)),
        },
    )
}

/// Exactly representable, so the bucket a time falls in is exact.
fn time_of(origin: u64, slot: usize, step: u32) -> SimTime {
    (origin + OFFSETS[slot]) as f64 * BUCKET_S + f64::from(step) * (BUCKET_S / f64::from(STEPS))
}

/// The queue under test next to the model: every key ever scheduled,
/// in scheduling order, and every key popped, in pop order.
#[derive(Default)]
struct Harness {
    queue: EventQueue<usize>,
    scheduled: Vec<(u64, usize)>,
    popped: Vec<(u64, usize)>,
    /// Per id: scheduled on the far lane / already popped.
    far: Vec<bool>,
    done: Vec<bool>,
    /// Nothing was scheduled since the last pop attempt, which is when
    /// `upcoming` is exact rather than a hint.
    settled: bool,
    /// `upcoming` answers checked while settled.
    exact_answers: usize,
}

impl Harness {
    fn schedule(&mut self, far: bool, at: SimTime) {
        let at = at.max(self.queue.now());
        let id = self.scheduled.len();
        let lane = if far { Lane::Far } else { Lane::Near };
        self.queue.schedule_at_on(lane, at, id);
        self.scheduled.push((at.to_bits(), id));
        self.far.push(far);
        self.done.push(false);
        self.settled = false;
    }

    /// One pop no later than `deadline`; checks the `&self` peek (which
    /// scans an unsorted bucket) against what the pop then returns.
    fn pop_before(&mut self, deadline: SimTime) -> Result<bool, TestCaseError> {
        let peeked = self.queue.peek_time();
        self.settled = true;
        match self.queue.pop_before(deadline) {
            Some((t, id)) => {
                prop_assert_eq!(peeked, Some(t));
                prop_assert!(t <= deadline);
                self.popped.push((t.to_bits(), id));
                self.done[id] = true;
                Ok(true)
            }
            None => {
                prop_assert!(peeked.is_none_or(|t| t > deadline));
                Ok(false)
            }
        }
    }

    /// One `upcoming(k)` lookup. The pop stream is checked against the
    /// reference sort at the end, so "the `k`-th following far-lane
    /// pop yields it" is: it is the `k`-th pending far key of that
    /// sort.
    fn upcoming(&mut self, k: usize) -> Result<(), TestCaseError> {
        let mut pending_far = self.scheduled.clone();
        pending_far.retain(|&(_, id)| self.far[id] && !self.done[id]);
        pending_far.sort_unstable();
        match self.queue.upcoming(k) {
            Some(&id) if self.settled => {
                prop_assert_eq!(Some(id), pending_far.get(k).map(|&(_, id)| id));
                self.exact_answers += 1;
            }
            // Stale or not, never a popped (vacated) or near-lane slot.
            Some(&id) => prop_assert!(self.far[id] && !self.done[id]),
            // Past the end stays past the end.
            None => prop_assert!(self.queue.upcoming(k + 1).is_none()),
        }
        prop_assert!(self.queue.upcoming(pending_far.len()).is_none());
        // The address-only hint takes the same way to the slot: any
        // `k`, in or past the bucket, and the stream stays as checked.
        self.queue.prefetch_upcoming(k);
        self.queue.prefetch_upcoming(pending_far.len());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_buckets_pop_in_reference_order(
        origin in 0u64..5000,
        fill in collection::vec((0..STEPS, 0u8..4), FILL_PER_BUCKET * OFFSETS.len()..96 * OFFSETS.len()),
        churn in collection::vec(op(), 1000..2500),
    ) {
        let mut h = Harness::default();
        // Put the clock at the origin, mid-revolution of the ring.
        h.schedule(false, origin as f64 * BUCKET_S);
        prop_assert!(h.pop_before(SimTime::INFINITY)?);

        // Fill: round-robin over the target buckets, so each holds at
        // least `FILL_PER_BUCKET` far keys in arrival (unsorted) order;
        // a quarter of them get a near-lane twin at the same instant.
        for (i, &(step, twin)) in fill.iter().enumerate() {
            let at = time_of(origin, i % OFFSETS.len(), step);
            h.schedule(true, at);
            if twin == 0 {
                h.schedule(false, at);
            }
        }
        // No bucket has been reached yet, however full they are.
        prop_assert!(h.queue.upcoming(0).is_none());

        for step in &churn {
            match *step {
                Op::Schedule { far, slot, step } => h.schedule(far, time_of(origin, slot, step)),
                Op::Pop(count) => {
                    for _ in 0..count {
                        if !h.pop_before(SimTime::INFINITY)? {
                            break;
                        }
                    }
                }
                Op::PopBefore { slot, step } => {
                    let deadline = time_of(origin, slot, step);
                    while h.pop_before(deadline)? {}
                }
                Op::Upcoming(k) => h.upcoming(k)?,
            }
        }
        prop_assert_eq!(h.queue.len(), h.scheduled.len() - h.popped.len());
        // The drain is what reaches the horizon's edge, where wheel and
        // overflow keys share a bucket: keep looking ahead through it.
        while h.pop_before(SimTime::INFINITY)? {
            if h.popped.len() % 8 == 0 {
                h.upcoming(h.popped.len() / 8 % 40)?;
            }
        }
        prop_assert!(h.queue.is_empty());

        prop_assert!(h.exact_answers > 0, "no upcoming() answer was ever checked");

        // Stable sort by time = global (time, insertion order).
        let mut reference = h.scheduled;
        reference.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(h.popped, reference);
    }
}
