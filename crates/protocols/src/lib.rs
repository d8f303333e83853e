//! # protocols
//!
//! Classic building-block protocols for multi-hop radio networks without
//! collision detection, implemented as engine-independent state machines:
//!
//! * [`decay`] — the **Decay** primitive of Bar-Yehuda, Goldreich & Itai
//!   (1992): exponentially decreasing transmission probabilities that let
//!   a listener with anywhere between 1 and Δ transmitting neighbors
//!   receive within one `⌈log Δ⌉`-round epoch with constant probability.
//! * [`epidemic`] — BGI randomized broadcast: every informed node runs
//!   Decay epochs; a message crosses the network in
//!   `O((D + log n)·log Δ)` rounds w.h.p. Doubles as the paper's `ALARM`
//!   sub-routine (1-bit alarms) and the network-wide OR used below.
//! * [`leader`] — Stage 1 of the paper: elect the highest-id
//!   packet-holding node by binary search over the id space, each probe
//!   answered by a network-wide OR flood
//!   (`O((D + log n)·log n·log Δ)` rounds, Fact 1).
//! * [`bfs`] — Stage 2: the distributed BFS-tree construction of BGI,
//!   `D` phases of `O(log n·log Δ)` rounds; after phase `d` every node at
//!   distance `d` knows its parent and distance w.h.p. (Theorem 1).
//! * [`timing`] — the shared round-arithmetic helpers (`ceil_log2`, epoch
//!   and window lengths) so every crate derives identical schedules.
//!
//! Each state machine exposes `poll(local_round, rng) -> Option<Msg>` and
//! `deliver(local_round, &msg)`; a composite protocol (see the `kbcast`
//! crate) multiplexes them onto the channel, and each module also ships a
//! standalone adapter implementing [`radio_net::Node`] for direct
//! simulation in tests and micro-benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod decay;
pub mod epidemic;
pub mod leader;
pub mod timing;

pub use decay::Decay;
pub use epidemic::Epidemic;
pub use leader::LeaderElection;
pub use timing::ceil_log2;
