//! The composite wire format of the k-broadcast protocol.
//!
//! One message enum covers all four stages, so a single engine run can
//! carry the whole execution. Sizes are accounted per the radio model:
//! every variant is `O(b)` bits for `b ≥ log n` (the coded variant is the
//! largest at `⌈log n⌉ + O(log n)` header bits plus a `b`-bit payload,
//! i.e. at most twice a plain packet, exactly as the paper argues).
//!
//! A fixed [`HEADER_BITS`] overhead models the synchronization header
//! (current round / stage) that lets late-woken nodes join the schedule —
//! in the simulator the round number is delivered by the engine, and this
//! constant keeps the bit accounting honest about it.

use std::fmt;
use std::sync::Arc;

use gf2::bitvec::BitVec;
use radio_net::message::MessageSize;

use crate::packet::{Packet, PacketKey};

/// Bits charged to every message for the round/stage synchronization
/// header.
pub const HEADER_BITS: usize = 48;

/// Stage 1 probe flood (see [`protocols::leader`]).
pub use protocols::leader::ProbeMsg;

/// Stage 2 BFS announcement (see [`protocols::bfs`]).
pub use protocols::bfs::BfsMsg;

/// Stage 3 upward unicast step: `from` relays the packet to its BFS
/// parent `to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataMsg {
    /// Transmitting node.
    pub from: u64,
    /// Addressee (the transmitter's BFS parent).
    pub to: u64,
    /// The packet being unicast towards the root.
    pub packet: Packet,
}

/// Stage 3 downward acknowledgement: forwarded along the reverse of the
/// packet's recorded path, 3 rounds apart so consecutive acks never
/// collide (BFS neighbors differ by at most one ring).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckMsg {
    /// Addressee (the recorded child for this packet).
    pub to: u64,
    /// Which packet is acknowledged.
    pub key: PacketKey,
}

/// Stage 3 alarm flood: "some packet is still unacknowledged".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlarmMsg {
    /// Collection phase this alarm belongs to.
    pub phase: u32,
}

/// Stage 4 coded transmission: a GF(2) combination of one dissemination
/// group, with enough header for late joiners to build the right
/// decoder.
///
/// What goes on the air is the header (`batch` through `payload_len`),
/// the selection `coeffs` and `payload_len` bytes of XOR payload;
/// [`MessageSize::size_bits`] of [`Msg::Coded`] counts exactly these.
/// In memory the row does not hold that XOR: it shares the sender's
/// padded group and computes the payload from the selection only when
/// asked ([`CodedMsg::payload`]). A transmission then costs one
/// reference-count bump, and a receiver that has already decoded the
/// group never computes the XOR at all. The shared group is the
/// simulator's representation, not extra bits on the channel: nothing
/// reads it except through the selection. Equality and `Debug` compare
/// and print the row as sent (header, coefficients, payload bytes).
#[derive(Clone)]
pub struct CodedMsg {
    /// Batch index — always 0 for the paper's static problem; the
    /// dynamic-arrival extension ([`crate::dynamic`]) tags each batch so
    /// a lagging node never feeds one batch's rows into another batch's
    /// decoder.
    pub batch: u32,
    /// Group index.
    pub group: u32,
    /// Total number of groups `g` (lets every node compute the Stage 4
    /// schedule and its own completion).
    pub num_groups: u32,
    /// Total packet count `k`.
    pub k: u32,
    /// Members in this group (the last group may be short).
    pub group_size: u16,
    /// Common padded payload length of this group's members, in bytes.
    pub payload_len: u16,
    /// Selection bit-vector over the group.
    pub coeffs: BitVec,
    /// The sender's padded group, shared with the sender and every other
    /// row it sends.
    members: Arc<[Vec<u8>]>,
}

impl CodedMsg {
    /// The row selecting `coeffs` out of `members`, the sender's group
    /// `group` of `num_groups` (batch `batch`, `k` packets in all), each
    /// member padded to the same length. `group_size` and `payload_len`
    /// are read off `members`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` does not span `members`, or if the group size
    /// or the padded length does not fit `u16`.
    #[must_use]
    pub fn new(
        batch: u32,
        group: u32,
        num_groups: u32,
        k: u32,
        coeffs: BitVec,
        members: Arc<[Vec<u8>]>,
    ) -> Self {
        assert_eq!(
            coeffs.len(),
            members.len(),
            "coefficient length must equal group size"
        );
        CodedMsg {
            batch,
            group,
            num_groups,
            k,
            group_size: u16::try_from(members.len()).expect("group size fits u16"),
            payload_len: u16::try_from(members.first().map_or(0, Vec::len))
                .expect("payload len fits u16"),
            coeffs,
            members,
        }
    }

    /// The XOR of the selected members: the `payload_len` payload bytes
    /// this row carries on the air.
    #[must_use]
    pub fn payload(&self) -> Vec<u8> {
        let mut out = vec![0; usize::from(self.payload_len)];
        self.payload_into(&mut out);
        out
    }

    /// Writes [`CodedMsg::payload`] into `out`, overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `payload_len` bytes long.
    pub fn payload_into(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            usize::from(self.payload_len),
            "payload buffer length"
        );
        out.fill(0);
        for i in self.coeffs.iter_ones() {
            for (a, b) in out.iter_mut().zip(&self.members[i]) {
                *a ^= b;
            }
        }
    }

    /// A hand-built row of group 0 whose sender holds `members`.
    #[cfg(test)]
    pub(crate) fn by_hand(
        batch: u32,
        num_groups: u32,
        k: u32,
        coeffs: BitVec,
        members: Vec<Vec<u8>>,
    ) -> Self {
        CodedMsg::new(batch, 0, num_groups, k, coeffs, members.into())
    }
}

impl PartialEq for CodedMsg {
    fn eq(&self, other: &Self) -> bool {
        (
            self.batch,
            self.group,
            self.num_groups,
            self.k,
            self.group_size,
            self.payload_len,
        ) == (
            other.batch,
            other.group,
            other.num_groups,
            other.k,
            other.group_size,
            other.payload_len,
        ) && self.coeffs == other.coeffs
            && (Arc::ptr_eq(&self.members, &other.members) || self.payload() == other.payload())
    }
}

impl Eq for CodedMsg {}

impl fmt::Debug for CodedMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodedMsg")
            .field("batch", &self.batch)
            .field("group", &self.group)
            .field("num_groups", &self.num_groups)
            .field("k", &self.k)
            .field("group_size", &self.group_size)
            .field("payload_len", &self.payload_len)
            .field("coeffs", &self.coeffs)
            .field("payload", &self.payload())
            .finish()
    }
}

/// Any message of the composite protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Stage 1 leader-election probe.
    Probe(ProbeMsg),
    /// Stage 2 BFS announcement.
    Bfs(BfsMsg),
    /// Stage 3 upward data step.
    Data(DataMsg),
    /// Stage 3 downward acknowledgement.
    Ack(AckMsg),
    /// Stage 3 alarm flood.
    Alarm(AlarmMsg),
    /// Stage 4 coded transmission.
    Coded(CodedMsg),
}

impl MessageSize for Msg {
    fn size_bits(&self) -> usize {
        HEADER_BITS
            + match self {
                Msg::Probe(p) => p.size_bits(),
                Msg::Bfs(b) => b.size_bits(),
                Msg::Data(d) => 64 + 64 + d.packet.size_bits(),
                Msg::Ack(_) => 64 + 96,
                Msg::Alarm(_) => 32,
                Msg::Coded(c) => {
                    32 + 32 + 32 + 32 + 16 + 16 + c.coeffs.len() + usize::from(c.payload_len) * 8
                }
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::coded::encode_subset;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn every_variant_has_nonzero_size() {
        let msgs = [
            Msg::Probe(ProbeMsg { iter: 0 }),
            Msg::Bfs(BfsMsg { id: 1, dist: 2 }),
            Msg::Data(DataMsg {
                from: 0,
                to: 1,
                packet: Packet::new(0, 0, vec![1, 2]),
            }),
            Msg::Ack(AckMsg {
                to: 0,
                key: PacketKey { origin: 0, seq: 0 },
            }),
            Msg::Alarm(AlarmMsg { phase: 0 }),
            Msg::Coded(CodedMsg::by_hand(
                0,
                1,
                1,
                BitVec::zeros(1),
                vec![vec![0; 16]],
            )),
        ];
        for m in msgs {
            assert!(m.size_bits() > HEADER_BITS, "{m:?}");
        }
    }

    #[test]
    fn coded_message_is_at_most_twice_a_packet() {
        // The paper's argument: header ≤ log n ≤ b, so coded ≤ 2b + O(1).
        let b_bits = 64 * 8; // a 64-byte packet
        let coded = Msg::Coded(CodedMsg::by_hand(
            0,
            4,
            40,
            BitVec::zeros(10),
            vec![vec![0; 64]; 10],
        ));
        assert!(coded.size_bits() <= 2 * b_bits + HEADER_BITS + 128);
    }

    proptest! {
        /// A row by reference carries exactly the eagerly XORed payload
        /// and is counted at exactly the eager row's size, and it equals
        /// (and prints as) the same row over a copy of the group.
        #[test]
        fn prop_row_matches_eager_encoding(w in 1usize..65, len in 0usize..41, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let group: Vec<Vec<u8>> = (0..w)
                .map(|_| {
                    let mut m = vec![0; len];
                    rng.fill_bytes(&mut m);
                    m
                })
                .collect();
            let coeffs = BitVec::random_nonzero(w, &mut rng);
            let eager = encode_subset(&coeffs, &group);
            let row = CodedMsg::by_hand(0, 1, w as u32, coeffs.clone(), group.clone());
            prop_assert_eq!(row.payload(), eager.payload.clone());
            let copy = CodedMsg::by_hand(0, 1, w as u32, coeffs.clone(), group);
            prop_assert_eq!(&row, &copy);
            prop_assert_eq!(format!("{row:?}"), format!("{copy:?}"));
            let old_bits =
                HEADER_BITS + 32 + 32 + 32 + 32 + 16 + 16 + coeffs.len() + eager.payload.len() * 8;
            prop_assert_eq!(Msg::Coded(row).size_bits(), old_bits);
        }
    }

    #[test]
    fn rows_differing_in_payload_bytes_differ() {
        let row = |m: u8| CodedMsg::by_hand(0, 1, 2, BitVec::unit(2, 0), vec![vec![m], vec![7]]);
        assert_ne!(row(1), row(2));
        assert!(format!("{:?}", row(1)).ends_with("payload: [1] }"));
    }
}
