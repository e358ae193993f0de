//! Deterministic future-event list.
//!
//! Events are delivered in `(time, scheduling order)` — two events at
//! the same instant fire in the order they were scheduled. Determinism
//! matters: every experiment in the harness is reproducible from a
//! seed, and a nondeterministic event order would leak scheduling
//! noise into the published numbers.
//!
//! # Layout (why this is fast)
//!
//! The queue is the single hottest structure of a simulated run: every
//! delivery is one push and one pop, and the 100 k-node fused run keeps
//! ~100 k events pending in it. The representation is chosen for cache
//! behaviour rather than simplicity:
//!
//! * **Slab payloads** — the ordering structures hold 24-byte
//!   `(time, seq, slot)` keys; the event payloads (whatever the caller
//!   makes them: `dmf-core` boxes coordinates to keep a delivery at
//!   40 bytes, under one cache line) are written once into a reusable
//!   slot slab and never moved during sifts or sorts. Freed slots are
//!   recycled, so a steady-state simulation performs no allocation per
//!   event.
//! * **Integer keys** — times are non-negative finite `f64`s, whose
//!   IEEE-754 bit patterns order identically to the values; storing
//!   the bits as `u64` makes every comparison a branch-free integer
//!   compare instead of a NaN-aware float compare.
//! * **Two lanes** — callers hint whether an event is *near* (message
//!   deliveries, ~milliseconds out) or *far* ([`Lane::Far`]: probe
//!   timers and fused round trips, up to seconds out). The near lane
//!   is a 4-ary heap sized by the genuinely imminent events; the far
//!   lane is a timing wheel. Since the far population (one event per
//!   node) vastly outnumbers the in-flight messages, this keeps
//!   per-delivery work away from the whole timer population. The lane
//!   is purely a performance hint: ordering is global across both
//!   lanes via the shared `(time, seq)` key, and a far event beyond
//!   the wheel horizon falls back to an overflow heap, so any schedule
//!   is correct.
//! * **Timing wheel, sorted on reach** — far events hash into a ring
//!   of ~1 ms buckets covering a 2 s horizon, with a bitmap of
//!   occupied buckets. A bucket holds anything from a key or none
//!   (500 nodes) to ~100 keys (100 k nodes probing once a second), so
//!   inserting is a plain append whatever the population: a bucket is
//!   put in order only once, when the clock reaches it and it becomes
//!   the wheel's head. Only a key that lands in that already-sorted
//!   head bucket pays a positioned insert. Push is O(1) and pop is
//!   O(1) plus each key's share of one small sort, instead of O(log n)
//!   sifts through the whole timer population.
//! * **A readable future** — because the head bucket is sorted, the
//!   next far-lane deliveries are known before they are popped, and
//!   [`EventQueue::upcoming`] shows their payloads through `&self`. It
//!   exists so a run loop can prefetch the state those deliveries will
//!   touch (`dmf-core`'s `SimnetDriver` does); the payload slot itself
//!   is usually cold that far ahead, and reading it to prefetch it
//!   would be the stall, so [`EventQueue::prefetch_upcoming`] names a
//!   slot's address without looking inside. `upcoming` may be used for
//!   nothing else: it looks no further than the head bucket, says
//!   nothing about the near lane, and a later `schedule_*` may put a
//!   key in front of the one it showed — so what it returns is a hint
//!   about the order, never the order. It mutates nothing, sorts
//!   nothing and so cannot change what `pop` delivers.

/// Simulated time in seconds since simulation start.
pub type SimTime = f64;

/// Scheduling locality hint. Ordering is identical either way; the
/// lane only decides which internal heap carries the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Expected to fire soon relative to other events (default).
    Near,
    /// Expected to fire far in the future (periodic timers).
    Far,
}

/// Min-ordering key; the payload lives in the slab at `slot`.
#[derive(Clone, Copy)]
struct Key {
    /// `SimTime::to_bits()` — valid because times are `>= 0` and not
    /// NaN, for which range the f64 bit pattern is order-preserving.
    time_bits: u64,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Strict `(time, seq)` order; `seq` is globally unique, so two
    /// distinct keys are never equal.
    #[inline]
    fn is_before(&self, other: &Key) -> bool {
        (self.time_bits, self.seq) < (other.time_bits, other.seq)
    }
}

/// A 4-ary min-heap of [`Key`]s.
#[derive(Default)]
struct Heap4 {
    items: Vec<Key>,
}

impl Heap4 {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            items: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    fn peek(&self) -> Option<&Key> {
        self.items.first()
    }

    fn push(&mut self, key: Key) {
        let mut i = self.items.len();
        self.items.push(key);
        // Sift up.
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.items[i].is_before(&self.items[parent]) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Key> {
        let len = self.items.len();
        if len <= 1 {
            return self.items.pop();
        }
        let top = self.items.swap_remove(0);
        // Sift the relocated tail element down.
        let len = len - 1;
        let mut i = 0;
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + 4).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.items[c].is_before(&self.items[best]) {
                    best = c;
                }
            }
            if self.items[best].is_before(&self.items[i]) {
                self.items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        Some(top)
    }
}

/// Ring size of the far-lane timing wheel (power of two).
const WHEEL_SLOTS: usize = 2048;
/// Buckets per simulated second (bucket width ≈ 0.98 ms; horizon =
/// `WHEEL_SLOTS / BUCKETS_PER_SECOND` = 2 s).
const BUCKETS_PER_SECOND: f64 = 1024.0;

/// A timing wheel over [`Key`]s: O(1) insert/pop for events within a
/// 2-second horizon of *now*, falling back to a heap beyond it.
///
/// Invariant: every wheeled key satisfies
/// `now ≤ time < now + horizon`, so the ring index
/// `⌊time·BUCKETS_PER_SECOND⌋ mod WHEEL_SLOTS` is unambiguous and a
/// forward bitmap scan from `now`'s bucket finds the earliest event.
#[derive(Default)]
struct Wheel {
    /// Lazily grown to `WHEEL_SLOTS` buckets. Bucket `sorted` is
    /// ordered *descending* by `(time, seq)` so its minimum pops from
    /// the end; every other bucket is in arrival order.
    buckets: Vec<Vec<Key>>,
    /// One bit per bucket: does it hold any key?
    occupied: Vec<u64>,
    /// Ring index of the one bucket kept sorted: the last bucket
    /// [`head`](Self::head) reached.
    sorted: Option<usize>,
    /// Keys currently in buckets (not counting `overflow`).
    wheeled: usize,
    /// Far events beyond the wheel horizon at insert time.
    overflow: Heap4,
}

/// Where the wheel's earliest key sits.
#[derive(Clone, Copy)]
enum FarHead {
    Bucket(usize),
    Overflow,
}

impl Wheel {
    fn len(&self) -> usize {
        self.wheeled + self.overflow.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn ensure_ring(&mut self) {
        if self.buckets.is_empty() {
            // Room for a few keys each, so a small population (a timer
            // or none per bucket) never grows one; a large population
            // grows each bucket to its steady size during the wheel's
            // first revolution and not again.
            self.buckets = (0..WHEEL_SLOTS).map(|_| Vec::with_capacity(4)).collect();
            self.occupied = vec![0u64; WHEEL_SLOTS / 64];
        }
    }

    #[inline]
    fn bucket_of(time: SimTime) -> u64 {
        (time * BUCKETS_PER_SECOND) as u64
    }

    fn insert(&mut self, key: Key, now: SimTime) {
        let abs = Self::bucket_of(SimTime::from_bits(key.time_bits));
        if abs >= Self::bucket_of(now) + WHEEL_SLOTS as u64 {
            self.overflow.push(key);
            return;
        }
        self.ensure_ring();
        let idx = (abs as usize) & (WHEEL_SLOTS - 1);
        let bucket = &mut self.buckets[idx];
        if self.sorted == Some(idx) {
            // The head bucket is already in order: keep it so.
            let pos = bucket.partition_point(|k| key.is_before(k));
            bucket.insert(pos, key);
        } else {
            bucket.push(key);
        }
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.wheeled += 1;
    }

    /// Ring index of the first occupied bucket at or after `now`'s
    /// bucket (`None` when the ring is empty).
    fn first_occupied(&self, now: SimTime) -> Option<usize> {
        if self.wheeled == 0 {
            return None;
        }
        let start = (Self::bucket_of(now) as usize) & (WHEEL_SLOTS - 1);
        let (start_word, start_bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        // First word: mask off bits before `start`.
        let masked = self.occupied[start_word] & (!0u64 << start_bit);
        if masked != 0 {
            return Some(start_word * 64 + masked.trailing_zeros() as usize);
        }
        for step in 1..=words {
            let w = (start_word + step) % words;
            let bits = self.occupied[w];
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The earliest key and where it sits. A bucket that was not
    /// already the head is sorted on being reached — the one place
    /// bucket order is established.
    fn head(&mut self, now: SimTime) -> Option<(Key, FarHead)> {
        let wheel_min = self.first_occupied(now).map(|idx| {
            let bucket = &mut self.buckets[idx];
            if self.sorted != Some(idx) {
                bucket.sort_unstable_by_key(|k| std::cmp::Reverse((k.time_bits, k.seq)));
                self.sorted = Some(idx);
            }
            let key = *bucket.last().expect("occupied bucket cannot be empty");
            (key, FarHead::Bucket(idx))
        });
        let overflow_min = self.overflow.peek().map(|&o| (o, FarHead::Overflow));
        match (wheel_min, overflow_min) {
            (Some(w), Some(o)) => Some(if o.0.is_before(&w.0) { o } else { w }),
            (w, o) => w.or(o),
        }
    }

    /// Removes the key [`head`](Self::head) just reported at `at`.
    fn remove(&mut self, at: FarHead) {
        match at {
            FarHead::Overflow => {
                self.overflow.pop();
            }
            FarHead::Bucket(idx) => {
                let bucket = &mut self.buckets[idx];
                bucket.pop();
                if bucket.is_empty() {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                self.wheeled -= 1;
            }
        }
    }

    /// Time bits of the earliest key, without putting anything in
    /// order (`&self`): scans the first occupied bucket.
    fn min_time_bits(&self, now: SimTime) -> Option<u64> {
        let wheel_min = self
            .first_occupied(now)
            .and_then(|idx| self.buckets[idx].iter().map(|k| k.time_bits).min());
        let overflow_min = self.overflow.peek().map(|k| k.time_bits);
        match (wheel_min, overflow_min) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }
}

/// A future-event list ordered by `(time, insertion order)`.
pub struct EventQueue<E> {
    near: Heap4,
    far: Wheel,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            near: Heap4::default(),
            far: Wheel::default(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// An empty queue with room for `capacity` pending events before
    /// any internal structure reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            near: Heap4::with_capacity(capacity),
            far: Wheel::default(),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (0 before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at` on the given lane.
    ///
    /// # Panics
    /// Panics if `at` is not finite (NaN or ±∞: an event at t = ∞
    /// would move the clock there when popped) or lies in the past
    /// (before [`now`]).
    ///
    /// [`now`]: EventQueue::now
    pub fn schedule_at_on(&mut self, lane: Lane, at: SimTime, event: E) {
        assert!(
            at.is_finite(),
            "cannot schedule at a non-finite time: at={at}"
        );
        assert!(
            at >= self.now,
            "cannot schedule in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Some(event));
                slot
            }
        };
        let key = Key {
            time_bits: at.to_bits(),
            seq,
            slot,
        };
        match lane {
            Lane::Near => self.near.push(key),
            Lane::Far => self.far.insert(key, self.now),
        }
    }

    /// Schedules `event` at absolute time `at` (near lane).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_on(Lane::Near, at, event);
    }

    /// Schedules `event` after a relative `delay` on the given lane.
    fn schedule_after_on(&mut self, lane: Lane, delay: SimTime, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at_on(lane, self.now + delay, event);
    }

    /// Schedules `event` after a relative `delay` (near lane).
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_after_on(Lane::Near, delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::INFINITY)
    }

    /// Pops the earliest event only if it is due at or before
    /// `deadline`; a later event stays queued (and the clock stays
    /// put). One head lookup instead of a `peek_time` + `pop` pair —
    /// this is the run-loop primitive that lets drivers stop exactly
    /// at a simulated-time budget without overshooting it.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let far = self.far.head(self.now);
        let (key, far_at) = match (self.near.peek(), far) {
            (None, None) => return None,
            (Some(&n), None) => (n, None),
            (Some(&n), Some((f, _))) if n.is_before(&f) => (n, None),
            (_, Some((f, at))) => (f, Some(at)),
        };
        let time = SimTime::from_bits(key.time_bits);
        if time > deadline {
            return None;
        }
        match far_at {
            Some(at) => self.far.remove(at),
            None => {
                self.near.pop();
            }
        }
        self.now = time;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("slab slot vacated twice");
        self.free.push(key.slot);
        Some((time, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = self.near.peek().map(|k| k.time_bits);
        let far = self.far.min_time_bits(self.now);
        let bits = match (near, far) {
            (Some(n), Some(f)) => n.min(f),
            (n, f) => n.or(f)?,
        };
        Some(SimTime::from_bits(bits))
    }

    /// The key whose payload [`upcoming(k)`](Self::upcoming) shows,
    /// `None` exactly where that is.
    #[inline]
    fn upcoming_key(&self, k: usize) -> Option<&Key> {
        let bucket = &self.far.buckets[self.far.sorted?];
        let key = bucket.get(bucket.len().checked_sub(k + 1)?)?;
        if self.far.overflow.peek().is_some_and(|o| o.is_before(key)) {
            return None;
        }
        Some(key)
    }

    /// Payload of the far-lane key that pops `k` far-lane pops after
    /// the next one (`upcoming(0)` is the next far-lane pop), read off
    /// the sorted head bucket; `None` when that bucket holds no such
    /// key — before any bucket has been reached, past its end — or an
    /// overflow key is due first. Exact as long as nothing is
    /// scheduled after the last pop; see *Layout* for what it is for.
    pub fn upcoming(&self, k: usize) -> Option<&E> {
        self.slots[self.upcoming_key(k)?.slot as usize].as_ref()
    }

    /// Prefetches the payload slot [`upcoming(k)`](Self::upcoming)
    /// would read, without reading it: `upcoming` has to look at the
    /// slot to hand out its payload, so on a cold slot it *is* the
    /// miss a prefetch was meant to hide. This names the slot's
    /// address and nothing more; does nothing where `upcoming(k)`
    /// would return `None`.
    #[inline]
    pub fn prefetch_upcoming(&self, k: usize) {
        if let Some(key) = self.upcoming_key(k) {
            dmf_linalg::simd::prefetch(&self.slots[key.slot as usize]);
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn ties_break_fifo_across_lanes() {
        let mut q = EventQueue::new();
        q.schedule_at_on(Lane::Far, 5.0, "far-first");
        q.schedule_at_on(Lane::Near, 5.0, "near-second");
        q.schedule_at_on(Lane::Far, 5.0, "far-third");
        assert_eq!(q.pop(), Some((5.0, "far-first")));
        assert_eq!(q.pop(), Some((5.0, "near-second")));
        assert_eq!(q.pop(), Some((5.0, "far-third")));
    }

    #[test]
    fn lanes_interleave_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at_on(Lane::Far, 1.0, 1);
        q.schedule_at_on(Lane::Near, 0.5, 0);
        q.schedule_at_on(Lane::Far, 2.0, 3);
        q.schedule_at_on(Lane::Near, 1.5, 2);
        for expect in 0..4 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule_at(4.5, ());
        q.pop();
        assert_eq!(q.now(), 4.5);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, "first");
        q.pop();
        q.schedule_after(3.0, "second");
        assert_eq!(q.pop(), Some((5.0, "second")));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, ());
        q.pop();
        q.schedule_at(5.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(f64::NAN, ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(7.0, 1);
        q.schedule_at_on(Lane::Far, 6.0, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(6.0));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, "a");
        q.schedule_at_on(Lane::Far, 2.0, "b");
        q.schedule_at(3.0, "c");
        assert_eq!(q.pop_before(2.5), Some((1.0, "a")));
        assert_eq!(q.pop_before(2.5), Some((2.0, "b")));
        // "c" is past the deadline: not popped, clock unchanged.
        assert_eq!(q.pop_before(2.5), None);
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(3.0), Some((3.0, "c")));
        assert_eq!(q.pop_before(99.0), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule_at(1.25, "x");
        assert_eq!(q.peek_time(), Some(1.25));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((1.25, "x")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_scheduling_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, 1);
        q.schedule_at(10.0, 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.schedule_at(2.0, 2);
        q.schedule_at(5.0, 3);
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((5.0, 3)));
        assert_eq!(q.pop(), Some((10.0, 4)));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::with_capacity(4);
        // Steady-state churn: schedule/pop far more events than the
        // peak pending count; the slab must stay at the peak size.
        for round in 0..1000u32 {
            q.schedule_at(round as f64, round);
            q.schedule_at_on(Lane::Far, round as f64 + 0.5, round + 1_000_000);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 4,
            "slab grew to {} despite peak pending of 2",
            q.slots.len()
        );
    }

    #[test]
    fn interleaved_random_churn_matches_reference() {
        // Harsher heap exercise: pops interleaved with pushes, so
        // sift-down runs against live populations of both lanes.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut popped: Vec<(u64, usize)> = Vec::new();
        let mut state = 0xdead_beefu64;
        let mut horizon = 0.0f64;
        let mut id = 0usize;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let action = state % 3;
            if action < 2 {
                let dt = ((state >> 7) % 1000) as f64 / 100.0;
                let t = horizon + dt;
                let lane = if state & 4 == 0 {
                    Lane::Near
                } else {
                    Lane::Far
                };
                q.schedule_at_on(lane, t, id);
                reference.push((t.to_bits(), id));
                id += 1;
            } else if let Some((t, e)) = q.pop() {
                horizon = t;
                popped.push((t.to_bits(), e));
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t.to_bits(), e));
        }
        // Stable sort by time = global (time, insertion order).
        reference.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, reference);
    }

    #[test]
    fn random_workload_matches_reference_sort() {
        // Model: a reference Vec sorted stably by time must match the
        // queue's delivery order exactly, lanes notwithstanding.
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, usize)> = Vec::new();
        let mut state = 0x9e37_79b9u64;
        for i in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            let lane = if state & 1 == 0 {
                Lane::Near
            } else {
                Lane::Far
            };
            q.schedule_at_on(lane, t, i);
            reference.push((t, i));
        }
        reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (t, i) in reference {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }
}
