//! # radio-net
//!
//! A collision-accurate, discrete-round simulator for multi-hop **radio
//! networks** in the classical Chlamtac–Kutten / Bar-Yehuda–Goldreich–Itai
//! model, as used by Khabbazian & Kowalski, *Time-efficient randomized
//! multiple-message broadcast in radio networks* (PODC 2011).
//!
//! ## Model
//!
//! The network is an undirected graph. Time proceeds in synchronous rounds.
//! In every round each awake node either transmits one message or listens.
//! A listening node **receives** a message in a round if and only if
//! *exactly one* of its neighbors transmits in that round; otherwise it
//! hears nothing — by default there is **no collision detection**
//! (silence and collision are indistinguishable). A transmitting node
//! receives nothing (half-duplex). Sleeping nodes never transmit but are
//! woken by their first successful reception, exactly like the paper's
//! wake-up rule.
//!
//! The collision-detection axiom is a type-level toggle
//! ([`engine::CdModel`]): an `Engine<_, _, WithCd>` gives awake
//! listeners a three-valued channel (silence / message /
//! collision-noise, via [`engine::Node::collision_heard`]) as in the
//! Ghaffari–Haeupler–Khabbazian line of work, while the default
//! [`engine::NoCd`] compiles to exactly the no-CD hot loop.
//!
//! ## Crate layout
//!
//! * [`graph`] — immutable undirected graphs with distance/diameter queries.
//! * [`topology`] — generators for the standard experiment families
//!   (paths, grids, random graphs, unit-disk graphs, trees, …).
//! * [`engine`] — the round loop: [`engine::Engine`] drives values
//!   implementing [`engine::Node`] and enforces the collision semantics in
//!   exactly one place.
//! * [`session`] — the engine-owned run loop's harness surface:
//!   [`session::Observer`] hooks see per-round [`session::RoundEvents`]
//!   plus read-only node state, so reports come from instrumentation
//!   instead of post-hoc introspection.
//! * [`dyntopo`] — dynamic topology ([`dyntopo::TopologyModel`]):
//!   per-round edge churn, random-waypoint mobility and scheduled
//!   partition/heal can swap the adjacency before each round's
//!   transmissions resolve. A frozen graph is
//!   [`dyntopo::BuiltTopology::Static`], which never reshapes.
//! * [`faults`] — composable deterministic fault injection
//!   ([`faults::FaultModel`]): uniform/bursty loss, crash schedules,
//!   adversarial jamming, wake-up corruption. An empty
//!   [`faults::BuiltFaults`] is the clean channel: the engine skips
//!   every fault hook for it.
//! * [`rng`] — deterministic per-node random streams so every simulation is
//!   reproducible from a single `u64` seed.
//! * [`stats`] — transmission/reception/collision accounting.
//! * [`trace`] — structured round tracing: [`trace::TraceCollector`]
//!   records per-round counters into a bounded ring buffer, aggregates
//!   them per protocol stage (via a [`trace::StageProbe`]) and exports
//!   JSONL event streams, Chrome-trace span files and mergeable
//!   [`trace::TraceSummary`] aggregates. Zero-cost when off — the
//!   [`trace::Traced`] tee only exists on the opt-in path.
//! * [`verify`] — online model-conformance checking:
//!   [`verify::ModelChecker`] re-derives every round from the graph and
//!   transmit set and asserts the radio axioms above, via opt-in
//!   per-listener round traces ([`session::RoundDetail`]). Zero-cost
//!   when disabled — recording is gated on the monomorphized
//!   [`session::Observer::DETAIL`] constant.
//!
//! ## Example
//!
//! A one-shot network: node 0 transmits once, everyone adjacent hears it.
//!
//! ```
//! use radio_net::engine::{Engine, Node};
//! use radio_net::graph::NodeId;
//! use radio_net::message::MessageSize;
//! use radio_net::topology;
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl MessageSize for Ping {
//!     fn size_bits(&self) -> usize { 1 }
//! }
//!
//! struct Beacon { is_source: bool, heard: bool, sent: bool }
//! impl Node for Beacon {
//!     type Msg = Ping;
//!     fn poll(&mut self, _round: u64) -> Option<Ping> {
//!         if self.is_source && !self.sent {
//!             self.sent = true;
//!             return Some(Ping);
//!         }
//!         None
//!     }
//!     fn receive(&mut self, _round: u64, _msg: &Ping) { self.heard = true; }
//! }
//!
//! # fn main() -> Result<(), radio_net::error::Error> {
//! let graph = topology::path(3)?;
//! let nodes = (0..3)
//!     .map(|i| Beacon { is_source: i == 0, heard: false, sent: false })
//!     .collect();
//! let mut engine = Engine::new(graph, nodes, [NodeId::new(0)])?;
//! engine.run(1);
//! assert!(engine.node(NodeId::new(1)).heard); // neighbor of the source
//! assert!(!engine.node(NodeId::new(2)).heard); // two hops away
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod dyntopo;
pub mod engine;
pub mod error;
pub mod faults;
pub mod graph;
pub mod message;
pub mod rng;
pub mod session;
mod spec;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod verify;

pub use dyntopo::{
    BuiltTopology, ChurnSpec, EdgeChurn, PartitionHeal, PartitionWindow, TopologyModel, Waypoint,
};
pub use engine::{CdModel, Engine, NoCd, Node, WithCd};
pub use error::Error;
pub use faults::{
    AdversarialJammer, BuiltFaults, CrashSchedule, CrashSpec, FaultEvents, FaultModel, FaultSpec,
    GilbertElliott, GilbertSpec, UniformLoss, WakeupCorrupt,
};
pub use graph::{Graph, NodeId};
pub use message::MessageSize;
pub use session::{NoopObserver, Observer, RoundDetail, RoundEvents, SessionControl, SessionEnd};
pub use stats::SimStats;
pub use trace::{
    CounterTotals, CurveRec, GaugeStats, StageProbe, StageSample, StageSummary, TraceCollector,
    TraceReport, TraceSummary, Traced,
};
pub use verify::{Check, ModelChecker, Verified, VerifyStack, Violation, ViolationLog};
