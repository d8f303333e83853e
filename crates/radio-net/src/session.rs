//! Round observers and session outcomes for the engine-owned run loop.
//!
//! A *session* is one complete protocol execution driven by
//! [`Engine::run_session`](crate::engine::Engine::run_session): the
//! engine steps rounds until a stop condition holds and, after every
//! round, hands an [`Observer`] that round's channel events plus
//! read-only access to the node state machines. Harnesses build their
//! reports from observer instrumentation instead of re-deriving them
//! from node internals after the fact.
//!
//! Observation is zero-cost when unused: [`NoopObserver`]'s hook is an
//! empty `#[inline]` body, so
//! [`Engine::run_until_all_done`](crate::engine::Engine::run_until_all_done)
//! — which is now a `NoopObserver` session — compiles to the same hot
//! loop it had before observers existed.

use crate::dyntopo::TopologyModel;
use crate::engine::{CdModel, Engine, Node};
use crate::faults::{FaultEvents, FaultModel};

/// Everything that happened on the channel in one executed round.
///
/// Counts mirror the cumulative [`crate::stats::SimStats`] fields but
/// are per-round deltas, so an observer can attribute channel activity
/// to protocol phases without differencing the statistics itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundEvents {
    /// The round that was just executed.
    pub round: u64,
    /// Nodes that transmitted this round.
    pub transmissions: usize,
    /// Successful receptions this round.
    pub receptions: usize,
    /// Listeners that lost a reception to a collision this round.
    pub collisions: usize,
    /// Sleeping nodes woken by their first reception this round.
    pub wakeups: usize,
    /// Fault occurrences this round (all zero on the clean channel), so
    /// observers can attribute slowdowns to injected adversity rather
    /// than protocol behavior.
    pub faults: FaultEvents,
}

/// The full per-listener event trace of one executed round, available
/// to observers that opt in with [`Observer::DETAIL`].
///
/// Where [`RoundEvents`] aggregates counts, this names the nodes: which
/// ids transmitted, which listener received from which transmitter, and
/// which listeners were silenced and why. It is exactly the evidence a
/// model checker needs to re-derive the round from the graph and the
/// transmit set and confirm the engine obeyed the radio axioms.
///
/// All ids are raw node indices (`NodeId::index()` as `u32`). The five
/// "silenced" lists ([`Self::collisions`], [`Self::dropped`],
/// [`Self::jammed`], [`Self::crashed`], [`Self::wakeups_suppressed`])
/// together with [`Self::deliveries`] partition the touched listeners:
/// every non-transmitting listener adjacent to at least one transmitter
/// appears in exactly one of them.
#[derive(Clone, Copy, Debug)]
pub struct RoundDetail<'a> {
    /// The round that was just executed.
    pub round: u64,
    /// Ids of this round's transmitters, in poll order (the engine
    /// polls its active set in ascending id order, so this list is
    /// sorted).
    pub transmitters: &'a [u32],
    /// `(listener, transmitter)` per successful reception, in ascending
    /// listener order. The transmitter is the listener's unique
    /// transmitting neighbor this round.
    pub deliveries: &'a [(u32, u32)],
    /// Listeners that heard two or more transmitting neighbors (and,
    /// lacking collision detection, perceived silence).
    pub collisions: &'a [u32],
    /// Previously sleeping listeners woken by a reception this round —
    /// each also appears in [`Self::deliveries`].
    pub woken: &'a [u32],
    /// Nodes woken from outside the channel via
    /// [`crate::engine::Engine::wake`] since the previous round. These
    /// wakes precede the round: the node may already transmit in it.
    pub external_wakes: &'a [u32],
    /// Listeners whose sole reception was dropped by the fault model.
    pub dropped: &'a [u32],
    /// Listeners silenced by jamming (any number of transmitting
    /// neighbors).
    pub jammed: &'a [u32],
    /// Crashed (fail-stop) listeners adjacent to a transmitter — deaf at
    /// any heard count. Note [`FaultEvents::crashed_rx`] counts only the
    /// subset that would otherwise have received (exactly one
    /// transmitting neighbor).
    pub crashed: &'a [u32],
    /// Sleeping listeners whose would-be first reception was suppressed
    /// by wake-up corruption (they stay asleep).
    pub wakeups_suppressed: &'a [u32],
    /// Awake listeners that observed collision-noise this round —
    /// collision-detection engines ([`crate::engine::WithCd`]) only;
    /// always empty under [`crate::engine::NoCd`].
    ///
    /// Informational, like [`Self::woken`]: it does not extend the
    /// outcome partition above. A noisy listener's channel outcome is
    /// still its entry in [`Self::collisions`] or [`Self::jammed`];
    /// this list additionally records that the CD hook fired for it.
    pub noise: &'a [u32],
}

/// Reusable engine-side buffer behind [`RoundDetail`]: owns the lists,
/// is cleared and refilled each detailed round, and never reallocates
/// in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct RoundRecord {
    pub(crate) transmitters: Vec<u32>,
    pub(crate) deliveries: Vec<(u32, u32)>,
    pub(crate) collisions: Vec<u32>,
    pub(crate) woken: Vec<u32>,
    pub(crate) external_wakes: Vec<u32>,
    pub(crate) dropped: Vec<u32>,
    pub(crate) jammed: Vec<u32>,
    pub(crate) crashed: Vec<u32>,
    pub(crate) wakeups_suppressed: Vec<u32>,
    pub(crate) noise: Vec<u32>,
}

impl RoundRecord {
    pub(crate) fn clear(&mut self) {
        self.transmitters.clear();
        self.deliveries.clear();
        self.collisions.clear();
        self.woken.clear();
        self.external_wakes.clear();
        self.dropped.clear();
        self.jammed.clear();
        self.crashed.clear();
        self.wakeups_suppressed.clear();
        self.noise.clear();
    }

    pub(crate) fn detail(&self, round: u64) -> RoundDetail<'_> {
        RoundDetail {
            round,
            transmitters: &self.transmitters,
            deliveries: &self.deliveries,
            collisions: &self.collisions,
            woken: &self.woken,
            external_wakes: &self.external_wakes,
            dropped: &self.dropped,
            jammed: &self.jammed,
            crashed: &self.crashed,
            wakeups_suppressed: &self.wakeups_suppressed,
            noise: &self.noise,
        }
    }
}

/// A harness-side hook invoked by the engine after every round of a
/// session.
///
/// Observers see the same omniscient view the harness already had
/// through [`crate::engine::Engine::nodes`] — protocol nodes themselves
/// never observe each other. Implementations must not rely on being
/// called for rounds executed outside a session (e.g. by a raw
/// [`crate::engine::Engine::step`]).
pub trait Observer<N: Node> {
    /// Opts in to per-listener event traces: when `true`, the engine
    /// records a [`RoundDetail`] for every round and delivers it via
    /// [`Observer::on_round_detail`] right after [`Observer::on_round`].
    ///
    /// The choice belongs to the observer type, so it is a constant:
    /// the recording hooks sit behind `if DETAIL` on a monomorphized
    /// constant, so the default `false` compiles the entire detail path
    /// out of the hot loop.
    const DETAIL: bool = false;

    /// Called once after every executed round with that round's channel
    /// events and read-only access to all node state machines.
    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]);

    /// Called right after [`Observer::on_round`] with the round's full
    /// per-listener trace — but only when [`Observer::DETAIL`] is
    /// `true`; the default observer never sees this hook.
    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        let _ = (detail, nodes);
    }
}

/// The do-nothing observer: `on_round` is empty and inlines away, so a
/// `NoopObserver` session costs exactly as much as the bare step loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl<N: Node> Observer<N> for NoopObserver {
    #[inline(always)]
    fn on_round(&mut self, _events: &RoundEvents, _nodes: &[N]) {}
}

/// An arrival-injection seam for streaming sessions: a harness-side
/// source of external events (packet arrivals, wake-ups) that the
/// engine consults once per round of a
/// [`Engine::run_streaming_until`](crate::engine::Engine::run_streaming_until)
/// session, *before* the round executes.
///
/// The source gets mutable engine access so it can wake nodes
/// ([`Engine::wake`](crate::engine::Engine::wake)) and hand them
/// payloads ([`Engine::node_mut`](crate::engine::Engine::node_mut)) —
/// the same omniscient-harness tools the one-shot drivers already use.
/// Mutating a node through `node_mut` voids its activity-parking hint,
/// so `next_activity` parking stays correct under mid-run injection:
/// a parked node that receives an arrival is re-polled from the next
/// round on.
///
/// Unlike a one-shot workload, a traffic source need not be finite; a
/// streaming session terminates on its round budget or on the caller's
/// drain predicate once [`TrafficSource::exhausted`] reports the source
/// dry.
pub trait TrafficSource<N: Node> {
    /// Injects this round's arrivals (if any) into the engine. Called
    /// once before every round with the engine positioned at
    /// [`Engine::round`](crate::engine::Engine::round) == the round
    /// about to execute. Generic over the engine's fault,
    /// collision-detection and topology models: injection is a
    /// harness-side event and behaves the same in every channel
    /// model.
    fn inject<F: FaultModel, C: CdModel, T: TopologyModel>(
        &mut self,
        engine: &mut Engine<N, F, C, T>,
    );

    /// `true` once the source will never inject again (a bounded
    /// schedule ran out, or a generator hit its packet budget). An
    /// unbounded source simply always returns `false`.
    fn exhausted(&self) -> bool;
}

/// Flow control returned by a session's control hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep stepping rounds.
    Continue,
    /// Stop the session; it is reported as completed.
    Stop,
}

/// How a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEnd {
    /// `true` if the stop condition held (rather than the round cap
    /// running out).
    pub completed: bool,
    /// Engine round count when the session ended.
    pub rounds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;
    impl Node for Silent {
        type Msg = u8;
        fn poll(&mut self, _round: u64) -> Option<u8> {
            None
        }
        fn receive(&mut self, _round: u64, _msg: &u8) {}
    }

    #[test]
    fn noop_observer_is_callable() {
        let mut o = NoopObserver;
        let nodes = [Silent, Silent];
        o.on_round(&RoundEvents::default(), &nodes);
    }

    #[test]
    fn round_events_default_is_zeroed() {
        let e = RoundEvents::default();
        assert_eq!(e.transmissions + e.receptions + e.collisions + e.wakeups, 0);
    }
}
