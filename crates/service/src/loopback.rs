//! In-memory duplex byte pipe for driving the service without
//! sockets: [`loopback_pair`].
//!
//! The load generator, the examples and the threaded conformance
//! tests all need a transport, but the container the differential
//! suite runs in may not allow binding sockets — and a socket adds
//! nothing to what those tests measure. The loopback pipe is the
//! minimal stand-in: two endpoints, each endpoint's `send` feeding
//! the peer's `recv`, with blocking reads and explicit close
//! semantics. Anything that speaks bytes over it —
//! [`serve_loopback`](crate::connection::serve_loopback) on one side,
//! a [`ServiceClient`](crate::client::ServiceClient) pump on the
//! other — would speak identically over a TCP stream.
//!
//! # The hand-off
//!
//! Each direction is one mutex-guarded buffer. A request crossing it
//! is a hand-off between two threads, and a reader parked on a condvar
//! costs the sender a futex wake and the reader a reschedule —
//! microseconds, against a 50 ns prediction. Two things keep a
//! hand-off between two busy threads a memory hand-off, and a third
//! keeps the bytes cheap:
//!
//! * **Poll, then park.** `recv` first spins on a `ready` flag for a
//!   fixed window (`POLL_WINDOW`, about what one park and wake costs)
//!   and parks on the condvar only if nothing arrived by then. A peer
//!   answering from another core within the window is met awake; a
//!   reader whose peer takes longer, or needs this reader's core,
//!   gives the core up after at most that long. It does not yield
//!   between looks: a `yield_now` loop keeps a waiting thread
//!   runnable, so with more threads than cores the scheduler's
//!   placement of the waiters, not the work, sets the throughput, and
//!   that placement changes from run to run.
//! * **Wake only sleepers.** A reader counts itself in before it parks
//!   and out when it wakes, under the mutex; `send` and `close` notify
//!   only while that count is non-zero, so a send to a spinning reader
//!   makes no system call.
//! * **Move bytes in bulk.** `send` appends a slice to the queued
//!   `Vec<u8>` and `recv` copies all of it onto the end of the caller's
//!   buffer in one `memcpy`. Swapping the queued buffer into an empty
//!   caller's buffer instead measured no better at these sizes (a few
//!   KB per hand-off).
//!
//! The mutex is the only source of truth. `ready` is written only under
//! it — raised by `send` and `close`, lowered by a reader that drained
//! an open channel — and only says when taking the mutex is worth it:
//! a stale look costs one more spin, never a byte or a wake-up, because
//! a reader re-checks the buffer under the mutex before it parks.
//! Each `send` lands whole: two threads sending on clones of one
//! endpoint never interleave inside each other's bytes.

use std::hint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long `recv` spins before it parks: about one park and wake
/// (the condvar-only pipe read `service.loopback_handoff_us` ≈ 4.5 µs
/// on a 2-vCPU host), so a reader never spends much more waiting awake
/// than parking would have cost it. Sweep (seed 7, that host,
/// alternated 20 s runs, three each, medians of `lat_us` / M
/// `ops_per_s`): `serve-read` 2.41 / 3.43 at 3 µs, 1.28 / 3.28 at
/// 5 µs, 1.26 / 2.96 at 8 µs; `serve-write` 2.29 / 3.18, 1.18 / 2.88,
/// 1.17 / 2.73. 3 µs is shorter than the open loop's 5 µs request gap,
/// so its server parks between requests; past 5 µs the wait buys no
/// latency and takes CPU from the closed loop, where four threads
/// share two cores. Yielding between looks instead, at 5, 7 or 50 µs,
/// had the same `lat_us` but made `serve-write`'s `ops_per_s` land
/// anywhere in 3.2–5.6 M from one run to the next. A spin much longer
/// than a park starves a peer on the same core: one such sizing read
/// 1.07 M.
const POLL_WINDOW: Duration = Duration::from_micros(5);

/// One direction of the pipe.
struct Channel {
    state: Mutex<ChannelState>,
    readable: Condvar,
    /// Hint that bytes or a close are waiting (see the module docs).
    /// `Relaxed` throughout: it publishes no data, since a reader that
    /// sees it raised takes `state`'s lock before touching the bytes.
    ready: AtomicBool,
}

struct ChannelState {
    bytes: Vec<u8>,
    closed: bool,
    /// Readers parked on `readable`.
    sleepers: usize,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ChannelState {
                bytes: Vec::new(),
                closed: false,
                sleepers: 0,
            }),
            readable: Condvar::new(),
            ready: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ChannelState> {
        self.state.lock().expect("pipe lock")
    }

    fn send(&self, bytes: &[u8]) {
        let mut st = self.lock();
        if !st.closed {
            st.bytes.extend_from_slice(bytes);
            self.signal(&st);
        }
    }

    /// Blocks until bytes arrive or the channel closes; drains
    /// everything available into `buf`. Returns the byte count (0 =
    /// closed and drained).
    fn recv(&self, buf: &mut Vec<u8>) -> usize {
        let spinning = Instant::now();
        while !self.ready.load(Ordering::Relaxed) && spinning.elapsed() < POLL_WINDOW {
            hint::spin_loop();
        }
        let mut st = self.lock();
        while st.bytes.is_empty() && !st.closed {
            st.sleepers += 1;
            st = self.readable.wait(st).expect("pipe lock");
            st.sleepers -= 1;
        }
        self.drain(&mut st, buf)
    }

    fn try_recv(&self, buf: &mut Vec<u8>) -> usize {
        let mut st = self.lock();
        self.drain(&mut st, buf)
    }

    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.signal(&st);
    }

    /// Under the lock: raises the hint and wakes parked readers, if any.
    fn signal(&self, st: &ChannelState) {
        self.ready.store(true, Ordering::Relaxed);
        if st.sleepers > 0 {
            self.readable.notify_all();
        }
    }

    /// Under the lock: moves the queued bytes to the end of `buf`.
    fn drain(&self, st: &mut ChannelState, buf: &mut Vec<u8>) -> usize {
        let n = st.bytes.len();
        buf.extend_from_slice(&st.bytes);
        st.bytes.clear();
        // A close stays raised, so every later `recv` skips the poll.
        self.ready.store(st.closed, Ordering::Relaxed);
        n
    }
}

/// One end of an in-memory duplex byte pipe (create with
/// [`loopback_pair`]). Cloning an endpoint shares it.
#[derive(Clone)]
pub struct LoopbackEndpoint {
    tx: Arc<Channel>,
    rx: Arc<Channel>,
}

impl LoopbackEndpoint {
    /// Queues `bytes` for the peer (dropped silently if the peer
    /// closed — matching what a socket write after FIN amounts to).
    pub fn send(&self, bytes: &[u8]) {
        self.tx.send(bytes);
    }

    /// Blocks until the peer sends or closes; appends everything
    /// available to `buf` and returns the count (0 means the peer
    /// closed and the pipe is drained).
    pub fn recv(&self, buf: &mut Vec<u8>) -> usize {
        self.rx.recv(buf)
    }

    /// Non-blocking [`recv`](Self::recv): appends whatever is queued
    /// right now (possibly nothing).
    pub fn try_recv(&self, buf: &mut Vec<u8>) -> usize {
        self.rx.try_recv(buf)
    }

    /// Closes the direction the peer reads from; their `recv` drains
    /// the backlog, then returns 0.
    pub fn close(&self) {
        self.tx.close();
    }
}

/// Creates a connected pair of duplex endpoints.
pub fn loopback_pair() -> (LoopbackEndpoint, LoopbackEndpoint) {
    let a2b = Channel::new();
    let b2a = Channel::new();
    (
        LoopbackEndpoint {
            tx: a2b.clone(),
            rx: b2a.clone(),
        },
        LoopbackEndpoint { tx: b2a, rx: a2b },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn bytes_flow_both_ways() {
        let (a, b) = loopback_pair();
        a.send(b"ping");
        let mut buf = Vec::new();
        assert_eq!(b.recv(&mut buf), 4);
        assert_eq!(buf, b"ping");
        b.send(b"pong");
        buf.clear();
        assert_eq!(a.recv(&mut buf), 4);
        assert_eq!(buf, b"pong");
    }

    #[test]
    fn close_wakes_a_blocked_reader_after_the_backlog_drains() {
        let (a, b) = loopback_pair();
        a.send(b"tail");
        a.close();
        let mut buf = Vec::new();
        assert_eq!(b.recv(&mut buf), 4);
        assert_eq!(b.recv(&mut buf), 0);

        // A reader blocked with nothing queued is woken by close.
        let (c, d) = loopback_pair();
        let reader = on_thread(move || {
            let mut buf = Vec::new();
            d.recv(&mut buf)
        });
        c.close();
        assert_eq!(reader(), 0);
    }

    #[test]
    fn try_recv_never_blocks() {
        let (a, b) = loopback_pair();
        let mut buf = Vec::new();
        assert_eq!(b.try_recv(&mut buf), 0);
        a.send(b"x");
        assert_eq!(b.try_recv(&mut buf), 1);
    }

    /// A wake-up that has not come by then is lost.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Runs `f` on a thread of its own and returns a handle to its
    /// result that fails the test, instead of hanging it, if `f` is
    /// still blocked at [`DEADLINE`], and re-raises `f`'s panic.
    fn on_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> impl FnOnce() -> T {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let _ = tx.send(f());
        });
        move || match rx.recv_timeout(DEADLINE) {
            Ok(value) => {
                handle.join().expect("reader thread");
                value
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("reader still blocked after {DEADLINE:?}: lost wake-up")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("the reader panicked"))
            }
        }
    }

    /// Waits until `n` readers are parked on `rx`'s condvar.
    fn wait_for_sleepers(rx: &Channel, n: usize) {
        let start = Instant::now();
        while rx.lock().sleepers != n {
            assert!(start.elapsed() < DEADLINE, "{n} reader(s) never parked");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_reader_parked_past_the_poll_window_is_woken_by_a_send() {
        let (a, b) = loopback_pair();
        let rx = Arc::clone(&b.rx);
        let reader = on_thread(move || {
            let mut buf = Vec::new();
            let n = b.recv(&mut buf);
            (n, buf)
        });
        wait_for_sleepers(&rx, 1);
        a.send(b"late");
        assert_eq!(reader(), (4, b"late".to_vec()));
        assert_eq!(rx.lock().sleepers, 0);
    }

    #[test]
    fn a_close_during_the_poll_drains_then_reads_zero() {
        let (a, b) = loopback_pair();
        let rx = Arc::clone(&b.rx);
        let start = Arc::new(Barrier::new(2));
        let go = Arc::clone(&start);
        let reader = on_thread(move || {
            let (mut counts, mut buf) = (Vec::new(), Vec::new());
            go.wait();
            loop {
                let n = b.recv(&mut buf);
                counts.push(n);
                if n == 0 {
                    return (counts, buf);
                }
            }
        });
        // Released together, the send and the close often land while
        // the reader spins; the contract holds either way.
        start.wait();
        a.send(b"last");
        a.close();
        let (counts, buf) = reader();
        assert_eq!(buf, b"last");
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert_eq!(counts.last(), Some(&0));
        // The close stays raised: a later read returns without polling.
        assert!(rx.ready.load(Ordering::Relaxed));
    }

    #[test]
    fn recv_into_a_non_empty_buffer_appends() {
        let (a, b) = loopback_pair();
        let mut buf = b"head".to_vec();
        a.send(b"tail");
        assert_eq!(b.recv(&mut buf), 4);
        assert_eq!(buf, b"headtail");
        a.send(b"!");
        assert_eq!(b.try_recv(&mut buf), 1);
        assert_eq!(buf, b"headtail!");
        // The drained channel starts over empty.
        buf.clear();
        a.send(b"again");
        assert_eq!(b.recv(&mut buf), 5);
        assert_eq!(buf, b"again");
    }

    #[test]
    fn cloned_readers_share_one_channel_without_losing_a_byte() {
        const SENDS: u32 = 20_000;
        let (a, b) = loopback_pair();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let b = b.clone();
                on_thread(move || {
                    let (mut buf, mut got) = (Vec::new(), Vec::new());
                    loop {
                        buf.clear();
                        if b.recv(&mut buf) == 0 {
                            return got;
                        }
                        // Sends land whole, so a read holds whole words.
                        assert_eq!(buf.len() % 4, 0);
                        got.extend(
                            buf.chunks(4)
                                .map(|w| u32::from_le_bytes(w.try_into().expect("a word"))),
                        );
                    }
                })
            })
            .collect();
        for k in 0..SENDS {
            a.send(&k.to_le_bytes());
            if k % 1000 == 0 {
                // Long enough for both idle readers to park.
                thread::sleep(POLL_WINDOW * 20);
            }
        }
        a.close();
        let mut all = Vec::new();
        for reader in readers {
            let got = reader();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "each reader in order");
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(all, (0..SENDS).collect::<Vec<_>>());
    }
}
