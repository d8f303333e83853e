//! # gf2
//!
//! GF(2) linear algebra for **random linear network coding**, as used in
//! Stage 4 of Khabbazian & Kowalski's multiple-message broadcast (PODC
//! 2011). The paper's coding scheme picks each source packet independently
//! with probability ½ and transmits the XOR of the chosen packets together
//! with the selection bit-vector; a receiver reconstructs the packet group
//! once its received coefficient vectors span GF(2)^w (Lemma 3 of the
//! paper bounds how many random rows that takes).
//!
//! * [`bitvec::BitVec`] — compact bit-vectors (the coefficient headers).
//! * [`decoder::Decoder`] — incremental Gaussian elimination over coded
//!   payloads: insert `(coefficients, payload)` rows as they arrive and
//!   read the decoded packets out the moment rank `w` is reached. It is
//!   the crate's only eliminator: experiment E6 checks Lemma 3 on it,
//!   against [`decoder::lemma3_row_threshold`].
//! * [`coded`] — the wire representation of a coded packet and the random
//!   subset encoder.
//!
//! The paper phrases the payload combination as addition in a finite field
//! `F(2^b)`; with {0,1} coefficients that is exactly byte-wise XOR, which
//! is what this crate implements.
//!
//! ## Example: code and decode a group of packets
//!
//! ```
//! use gf2::coded::encode_subset;
//! use gf2::decoder::Decoder;
//! use gf2::bitvec::BitVec;
//!
//! let group: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"bravo".to_vec(), b"charl".to_vec()];
//! let mut decoder = Decoder::new(group.len(), 5);
//!
//! // Deliver three random-looking combinations plus a redundant one.
//! for mask in [0b011u32, 0b100, 0b110, 0b101] {
//!     let coeffs = BitVec::from_lsb_bits(mask as u64, 3);
//!     let packet = encode_subset(&coeffs, &group);
//!     decoder.insert(packet.coefficients, packet.payload);
//! }
//!
//! assert!(decoder.is_complete());
//! assert_eq!(decoder.decode().unwrap(), group);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod coded;
pub mod decoder;

pub use bitvec::BitVec;
pub use coded::CodedPacket;
pub use decoder::Decoder;
