//! # kbcast
//!
//! The paper's contribution: **randomized multiple-message broadcast**
//! (k-broadcast) for multi-hop radio networks without collision
//! detection, combining randomized transmission schedules with random
//! linear network coding — a faithful implementation of Khabbazian &
//! Kowalski, *Time-efficient randomized multiple-message broadcast in
//! radio networks* (PODC 2011), on top of the [`radio_net`] simulator.
//!
//! The algorithm runs four consecutive stages (all scheduled from the
//! shared estimates `n_bound`, `d_bound`, `delta_bound` in [`config`]):
//!
//! 1. **Leader election** ([`protocols::leader`]) —
//!    `O((D + log n)·log n·logΔ)` rounds.
//! 2. **Distributed BFS** ([`protocols::bfs`]) — `O(D·log n·logΔ)`.
//! 3. **Packet collection** ([`stage3`]) — `O(k + (D + log n)·log n)`.
//! 4. **Coded dissemination** ([`stage4`]) —
//!    `O(k·logΔ + D·log n·logΔ)`.
//!
//! Total: `O(k·logΔ + (D + log n)·log n·logΔ)` w.h.p. — **amortized
//! `O(logΔ)` rounds per packet**, versus `O(log n·logΔ)` for the
//! Bar-Yehuda–Israeli–Itai baseline implemented in [`baseline`].
//!
//! Run any protocol end to end with [`session::run_protocol`] (or
//! [`session::run_protocol_on_graph`] on a prebuilt graph); use
//! [`node::KbcastNode`] directly to embed the protocol in a custom
//! harness. [`dynamic`] goes beyond the paper: it adapts the static
//! algorithm to continuously arriving packets (the paper's concluding
//! open problem) by looping stages 3+4 in batches. Channel noise for
//! robustness studies is a `radio_net::faults` model such as
//! `UniformLoss`. [`analysis`] reproduces the paper's Chernoff-type
//! lemmas by Monte Carlo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod config;
pub mod dynamic;
pub mod ghk;
pub mod messages;
pub mod node;
pub mod packet;
pub mod runner;
pub mod session;
pub mod stage3;
pub mod stage4;
pub mod verify;

pub use config::Config;
pub use ghk::{GhkConfig, GhkMeta, GhkProtocol};
pub use node::KbcastNode;
pub use packet::{Packet, PacketKey};
pub use runner::{CodedProtocol, Workload};
pub use session::{
    run_protocol, run_protocol_on_graph, BroadcastProtocol, NetParams, SessionReport,
};
pub use verify::StageInvariants;
