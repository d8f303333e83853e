//! Stage 4: disseminating the collected packets with network coding.
//!
//! The root partitions the `k` packets into `g = ⌈k/⌈log n⌉⌉` groups.
//! Each group ripples outward one BFS ring per phase: in the group's
//! first phase the root transmits its members raw (ring 1 has a single
//! transmitting neighbor — the root — so reception is deterministic);
//! in every later phase the previous ring runs `FORWARD`
//! ([`disseminate`]): Decay-scheduled transmissions, each a *fresh*
//! uniformly random GF(2) combination of the group, with the selection
//! bit-vector as header. A listener decodes once its received
//! coefficient matrix has full rank (Lemma 3), which `O(log n)`
//! receptions achieve w.h.p. (Lemma 6). Groups start
//! [`crate::config::GROUP_SPACING`] = 3 phases apart, so
//! concurrently active rings stay ≥ 3 apart and never interfere
//! (BFS neighbors differ by ≤ 1 ring). Total:
//! `O(k·logΔ + D·log n·logΔ)` rounds (Lemma 7).

pub mod disseminate;

pub use disseminate::{DissemNode, DissemState, GroupStatus};
