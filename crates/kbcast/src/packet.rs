//! Packets: the unit of work of multiple-message broadcast.

use std::sync::Arc;

use radio_net::error::Error;
use radio_net::message::MessageSize;

/// Globally unique packet identity: the originating node's id plus a
/// per-origin sequence number. (The paper assumes each packet carries at
/// least one id, which is why `b ≥ log n`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketKey {
    /// Id of the node that initially held the packet.
    pub origin: u64,
    /// Sequence number among that origin's packets.
    pub seq: u32,
}

/// Bytes [`Packet::to_bytes`] writes before the payload: origin,
/// sequence number and payload length.
const HEADER_BYTES: usize = 14;

/// Largest payload a packet can carry, in bytes (65 521): Stage 4 codes
/// a packet's byte form ([`Packet::to_bytes`], header plus payload) and
/// its messages carry that form's length in a `u16`. Every input that
/// builds packets refuses larger payloads through [`check_payload`].
pub const MAX_PAYLOAD_BYTES: usize = u16::MAX as usize - HEADER_BYTES;

/// Checks that `payload` fits in a packet ([`MAX_PAYLOAD_BYTES`]).
///
/// # Errors
///
/// [`Error::InvalidParameter`] naming the limit when it does not.
pub fn check_payload(payload: &[u8]) -> Result<(), Error> {
    if payload.len() > MAX_PAYLOAD_BYTES {
        return Err(Error::InvalidParameter {
            reason: format!(
                "payload of {} bytes exceeds the limit of {MAX_PAYLOAD_BYTES} bytes",
                payload.len()
            ),
        });
    }
    Ok(())
}

/// A payload-bearing packet.
///
/// Payloads never change after injection, so every copy of a packet
/// shares one buffer: a relay's clone is a refcount bump, not a heap
/// copy. Equality and hashing compare the bytes, not the buffer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Unique identity.
    pub key: PacketKey,
    /// Application payload bytes, shared by every copy of the packet.
    pub payload: Arc<[u8]>,
}

impl MessageSize for Packet {
    fn size_bits(&self) -> usize {
        Packet::size_bits(self)
    }
}

impl Packet {
    /// Creates a packet.
    #[must_use]
    pub fn new(origin: u64, seq: u32, payload: Vec<u8>) -> Self {
        Packet {
            key: PacketKey { origin, seq },
            payload: payload.into(),
        }
    }

    /// Size on the wire: key plus payload.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        64 + 32 + self.payload.len() * 8
    }

    /// Serializes to a self-delimiting byte blob for the Stage 4 coding
    /// layer (group members are XORed byte-wise, so each member must be
    /// parseable from a zero-padded buffer).
    ///
    /// # Panics
    ///
    /// Panics if the payload is longer than [`MAX_PAYLOAD_BYTES`].
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&self.key.origin.to_le_bytes());
        out.extend_from_slice(&self.key.seq.to_le_bytes());
        let len = u16::try_from(self.payload.len()).expect("payload within MAX_PAYLOAD_BYTES");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a (possibly zero-padded) blob produced by
    /// [`Packet::to_bytes`]. Returns `None` on malformed input.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let origin = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let seq = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let len = u16::from_le_bytes(bytes[12..14].try_into().ok()?) as usize;
        if bytes.len() < HEADER_BYTES + len {
            return None;
        }
        Some(Packet {
            key: PacketKey { origin, seq },
            payload: bytes[HEADER_BYTES..HEADER_BYTES + len].into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let p = Packet::new(7, 3, b"hello".to_vec());
        let bytes = p.to_bytes();
        assert_eq!(Packet::from_bytes(&bytes), Some(p));
    }

    #[test]
    fn roundtrip_survives_zero_padding() {
        let p = Packet::new(1, 0, vec![9, 8, 7]);
        let mut bytes = p.to_bytes();
        bytes.resize(64, 0);
        assert_eq!(Packet::from_bytes(&bytes), Some(p));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let p = Packet::new(0, 0, Vec::new());
        assert_eq!(Packet::from_bytes(&p.to_bytes()), Some(p));
    }

    #[test]
    fn truncated_input_rejected() {
        let p = Packet::new(2, 2, vec![1, 2, 3, 4]);
        let bytes = p.to_bytes();
        assert_eq!(Packet::from_bytes(&bytes[..10]), None);
        assert_eq!(Packet::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Packet::from_bytes(&[]), None);
    }

    #[test]
    fn size_bits_counts_key_and_payload() {
        let p = Packet::new(1, 1, vec![0; 10]);
        assert_eq!(p.size_bits(), 96 + 80);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(origin in any::<u64>(), seq in any::<u32>(),
                          payload in proptest::collection::vec(any::<u8>(), 0..256),
                          pad in 0usize..32) {
            let p = Packet::new(origin, seq, payload);
            let mut bytes = p.to_bytes();
            bytes.extend(std::iter::repeat_n(0, pad));
            prop_assert_eq!(Packet::from_bytes(&bytes), Some(p));
        }
    }
}
