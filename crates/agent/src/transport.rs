//! Pluggable datagram transport: real UDP sockets, or UDP wrapped in
//! the seeded fault injector from `dmf-proto`.
//!
//! The agent loop is generic over [`Transport`], so the same code
//! that runs over a clean [`UdpSocket`] can be driven through a
//! [`FaultySocket`] applying deterministic drop / duplicate / reorder
//! / truncate / bit-flip faults on the send path — the
//! fault-injection harness behind `crates/agent`'s loss-scenario
//! cluster test and `examples/lossy_cluster.rs`.

use dmf_proto::{FaultInjector, FaultSpec};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Mutex;

/// A connectionless datagram endpoint, as much of [`UdpSocket`] as
/// the agent loop needs. Read timeouts are configured on the
/// underlying socket before the loop starts.
pub trait Transport: Send {
    /// Sends one datagram toward `addr`.
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize>;
    /// Receives one datagram, honoring the socket's read timeout.
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;
}

impl Transport for UdpSocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        UdpSocket::send_to(self, buf, addr)
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(self, buf)
    }
}

/// A [`UdpSocket`] whose *outgoing* datagrams pass through a seeded
/// [`FaultInjector`]: sends may be dropped, duplicated, held back one
/// datagram, truncated or bit-flipped before reaching the wire.
///
/// Faulting only the send path keeps the model physical (each fault
/// happens once per datagram, in the network) while still exercising
/// every receive-side recovery path of the peers.
pub struct FaultySocket {
    inner: UdpSocket,
    injector: Mutex<FaultInjector>,
}

impl FaultySocket {
    /// Wraps a bound socket with a fault model. Identical
    /// `(spec, seed)` pairs replay the identical fault schedule.
    pub fn new(inner: UdpSocket, spec: FaultSpec, seed: u64) -> Self {
        FaultySocket {
            inner,
            injector: Mutex::new(FaultInjector::new(spec, seed)),
        }
    }
}

impl Transport for FaultySocket {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        let mangled = self.injector.lock().expect("injector lock").apply(buf);
        for datagram in mangled {
            self.inner.send_to(&datagram, addr)?;
        }
        // Report the caller's byte count: from the sender's point of
        // view the datagram left the host (a dropped datagram died in
        // the "network", not in the syscall).
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_proto::FaultCounts;
    use std::time::Duration;

    impl FaultySocket {
        fn fault_counts(&self) -> FaultCounts {
            self.injector.lock().expect("injector lock").counts()
        }
    }

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let b_addr = b.local_addr().unwrap();
        (a, b, b_addr)
    }

    #[test]
    fn clean_socket_passes_datagrams_through() {
        let (a, b, b_addr) = pair();
        let faulty = FaultySocket::new(a, FaultSpec::none(), 1);
        faulty.send_to(b"hello", b_addr).unwrap();
        let mut buf = [0u8; 16];
        let (len, _) = Transport::recv_from(&b, &mut buf).unwrap();
        assert_eq!(&buf[..len], b"hello");
        assert_eq!(faulty.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn dropping_socket_loses_datagrams() {
        let (a, b, b_addr) = pair();
        let spec = FaultSpec {
            drop: 1.0,
            ..FaultSpec::none()
        };
        let faulty = FaultySocket::new(a, spec, 2);
        for _ in 0..10 {
            faulty.send_to(b"gone", b_addr).unwrap();
        }
        let mut buf = [0u8; 16];
        assert!(Transport::recv_from(&b, &mut buf).is_err(), "all dropped");
        assert_eq!(faulty.fault_counts().drops, 10);
    }

    #[test]
    fn corrupting_socket_mangles_bytes() {
        let (a, b, b_addr) = pair();
        let spec = FaultSpec {
            bit_flip: 1.0,
            ..FaultSpec::none()
        };
        let faulty = FaultySocket::new(a, spec, 3);
        faulty.send_to(&[0u8; 32], b_addr).unwrap();
        let mut buf = [0u8; 64];
        let (len, _) = Transport::recv_from(&b, &mut buf).unwrap();
        assert_eq!(len, 32);
        assert_ne!(&buf[..len], &[0u8; 32], "one bit must differ");
        assert_eq!(faulty.fault_counts().bit_flips, 1);
    }
}
