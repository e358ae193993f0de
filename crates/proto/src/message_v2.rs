//! Protocol v2 messages: quantized coordinate updates + piggybacked
//! acknowledgements.
//!
//! Same four-datagram conversation as [`crate::message::Message`]
//! (the paper's Algorithms 1 and 2), but coordinates travel as
//! [`CoordUpdate`]s (delta/keyframe, see [`crate::delta`]) and every
//! probe carries an optional [`Ack`] for the reverse-direction
//! coordinate stream. Nonces shrink to `u32` and the ABW probe rate
//! to `f32` — class thresholds need nowhere near f64 precision.

use crate::context::Ack;
use crate::delta::CoordUpdate;

/// A protocol-v2 message.
#[derive(Clone, Debug, PartialEq)]
pub enum MessageV2 {
    /// Algorithm 1, step 1: RTT probe. `ack` confirms the newest
    /// coordinate update decoded *from the target* (the reply stream
    /// travels target→prober, so its acks ride the next probe).
    RttProbe {
        /// Correlates the reply with this probe.
        nonce: u32,
        /// Ack for the target→prober coordinate stream.
        ack: Option<Ack>,
    },
    /// Algorithm 1, step 2: the target returns its coordinates as one
    /// update block carrying `u_j` and `v_j` concatenated (one
    /// sequence number covers both).
    RttReply {
        /// Echo of the probe nonce.
        nonce: u32,
        /// `u_j ‖ v_j` (even rank, split in half by the receiver).
        update: CoordUpdate,
    },
    /// Algorithm 2, step 1: ABW probe carrying the prober's `u_i` as
    /// an update block, plus an ack for the target→prober `v` stream.
    AbwProbe {
        /// Correlates the reply with this probe.
        nonce: u32,
        /// Probe rate in Mbps (the class threshold `τ`).
        rate_mbps: f64,
        /// Ack for the target→prober coordinate stream.
        ack: Option<Ack>,
        /// `u_i` of the probing node.
        update: CoordUpdate,
    },
    /// Algorithm 2, step 3: the target returns the measured class and
    /// its `v_j`, plus an ack for the prober→target `u` stream.
    AbwReply {
        /// Echo of the probe nonce.
        nonce: u32,
        /// Measured class: `+1.0` or `−1.0`.
        x: f64,
        /// Ack for the prober→target coordinate stream.
        ack: Option<Ack>,
        /// `v_j` snapshot of the replying node.
        update: CoordUpdate,
    },
}

impl MessageV2 {
    /// The wire type tag (shared with v1: 1–4).
    pub fn type_tag(&self) -> u8 {
        match self {
            MessageV2::RttProbe { .. } => 1,
            MessageV2::RttReply { .. } => 2,
            MessageV2::AbwProbe { .. } => 3,
            MessageV2::AbwReply { .. } => 4,
        }
    }

    /// The nonce carried by any message kind.
    pub fn nonce(&self) -> u32 {
        match self {
            MessageV2::RttProbe { nonce, .. }
            | MessageV2::RttReply { nonce, .. }
            | MessageV2::AbwProbe { nonce, .. }
            | MessageV2::AbwReply { nonce, .. } => *nonce,
        }
    }

    /// The coordinate update carried, if any (all kinds except
    /// `RttProbe`).
    pub fn update(&self) -> Option<&CoordUpdate> {
        match self {
            MessageV2::RttProbe { .. } => None,
            MessageV2::RttReply { update, .. }
            | MessageV2::AbwProbe { update, .. }
            | MessageV2::AbwReply { update, .. } => Some(update),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::UpdatePayload;

    fn keyframe(seq: u16, coords: Vec<f64>) -> CoordUpdate {
        CoordUpdate {
            seq,
            payload: UpdatePayload::Keyframe {
                coords: coords.into(),
            },
        }
    }

    #[test]
    fn type_tags_match_v1() {
        let msgs = [
            MessageV2::RttProbe {
                nonce: 1,
                ack: None,
            },
            MessageV2::RttReply {
                nonce: 1,
                update: keyframe(0, vec![1.0, 2.0]),
            },
            MessageV2::AbwProbe {
                nonce: 1,
                rate_mbps: 10.0,
                ack: None,
                update: keyframe(0, vec![1.0]),
            },
            MessageV2::AbwReply {
                nonce: 1,
                x: 1.0,
                ack: None,
                update: keyframe(0, vec![1.0]),
            },
        ];
        let tags: Vec<u8> = msgs.iter().map(|m| m.type_tag()).collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
    }

    #[test]
    fn accessors() {
        let msg = MessageV2::RttReply {
            nonce: 77,
            update: keyframe(3, vec![0.5, -0.5]),
        };
        assert_eq!(msg.nonce(), 77);
        assert_eq!(msg.update().unwrap().seq, 3);
        assert!(MessageV2::RttProbe {
            nonce: 1,
            ack: None
        }
        .update()
        .is_none());
    }
}
