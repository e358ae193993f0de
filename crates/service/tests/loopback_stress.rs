//! Stress over the loopback pipe: four writers on clones of one
//! endpoint send 10 k frames each, of mixed length, to one reader that
//! parses them back. Every frame must arrive whole, each writer's
//! frames in the order sent, and the byte count must match. Writers
//! pause now and then so the reader keeps crossing from spinning to
//! parked and back; a lost wake-up fails the watchdog instead of
//! hanging the run.

use dmf_service::loopback_pair;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const WRITERS: u8 = 4;
const FRAMES: u32 = 10_000;
/// Frame header: writer id (1 byte), sequence number (4), payload
/// length (2).
const HEADER: usize = 7;
const WATCHDOG: Duration = Duration::from_secs(60);

fn payload_len(writer: u8, seq: u32) -> usize {
    // 0 to 600 bytes, so reads mix tiny and multi-frame hand-offs.
    ((seq.wrapping_mul(2_654_435_761) >> 7) as usize + usize::from(writer) * 131) % 601
}

fn payload_byte(writer: u8, seq: u32, k: usize) -> u8 {
    (seq as usize * 31 + k * 7 + usize::from(writer)) as u8
}

fn frame(writer: u8, seq: u32) -> Vec<u8> {
    let len = payload_len(writer, seq);
    let mut f = Vec::with_capacity(HEADER + len);
    f.push(writer);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&(len as u16).to_le_bytes());
    f.extend((0..len).map(|k| payload_byte(writer, seq, k)));
    f
}

/// Parses every whole frame at the front of `buf`, checking each
/// against what its writer sent next, and removes them.
fn parse(buf: &mut Vec<u8>, next: &mut [u32]) {
    let mut at = 0;
    while buf.len() - at >= HEADER {
        let writer = buf[at];
        let seq = u32::from_le_bytes(buf[at + 1..at + 5].try_into().expect("4 bytes"));
        let len = usize::from(u16::from_le_bytes(
            buf[at + 5..at + 7].try_into().expect("2 bytes"),
        ));
        // Sends land whole: a read never ends inside a frame.
        assert!(buf.len() - at >= HEADER + len, "frame split across reads");
        assert!(writer < WRITERS, "writer id {writer}");
        let w = usize::from(writer);
        assert_eq!(seq, next[w], "writer {writer} out of order");
        assert_eq!(
            len,
            payload_len(writer, seq),
            "writer {writer} frame {seq} length"
        );
        let body = &buf[at + HEADER..at + HEADER + len];
        assert!(
            body.iter()
                .enumerate()
                .all(|(k, &b)| b == payload_byte(writer, seq, k)),
            "writer {writer} frame {seq} payload"
        );
        next[w] += 1;
        at += HEADER + len;
    }
    assert_eq!(at, buf.len(), "trailing partial frame");
    buf.clear();
}

#[test]
fn four_writers_one_reader_lose_no_frame_and_keep_order() {
    let (tx, rx) = loopback_pair();
    let expected_bytes: usize = (0..WRITERS)
        .flat_map(|w| (0..FRAMES).map(move |s| HEADER + payload_len(w, s)))
        .sum();

    let (done_tx, done_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut next = vec![0u32; usize::from(WRITERS)];
        let (mut buf, mut total, mut reads) = (Vec::new(), 0usize, 0u64);
        loop {
            let n = rx.recv(&mut buf);
            total += n;
            reads += 1;
            // Every other read lands on the unparsed previous one, so
            // reads into an empty and into a non-empty buffer both
            // carry frames.
            if n == 0 || reads % 2 == 0 {
                parse(&mut buf, &mut next);
            }
            if n == 0 {
                break;
            }
        }
        done_tx.send((next, total)).expect("test thread waits");
    });

    let pause = Arc::new(Barrier::new(usize::from(WRITERS)));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (tx, pause) = (tx.clone(), Arc::clone(&pause));
            thread::spawn(move || {
                for seq in 0..FRAMES {
                    tx.send(&frame(w, seq));
                    if seq % 500 == 499 {
                        // All writers idle at once, for longer than the
                        // reader spins: it parks, and the next send
                        // must wake it.
                        pause.wait();
                        thread::sleep(Duration::from_millis(1));
                    } else if seq % 97 == u32::from(w) {
                        // One writer idles: the reader spins or parks,
                        // depending on what the others send meanwhile.
                        thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    tx.close();

    let (next, total) = match done_rx.recv_timeout(WATCHDOG) {
        Ok(tally) => tally,
        Err(RecvTimeoutError::Timeout) => {
            panic!("reader still blocked {WATCHDOG:?} after the close: lost wake-up")
        }
        // The reader failed a check: surface its panic.
        Err(RecvTimeoutError::Disconnected) => match reader.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the reader reports before it exits"),
        },
    };
    assert_eq!(next, vec![FRAMES; usize::from(WRITERS)]);
    assert_eq!(total, expected_bytes);
}
